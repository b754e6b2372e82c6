package reqtrace

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"gcao/internal/native/prof"
	"gcao/internal/obs"
	"gcao/internal/obs/attr"
)

// rec is a request of wall time wallUS: one compile phase, and a parse
// span inside it.
func rec(id string, wallUS int64, status int) Record {
	return Record{
		ID: id, TraceID: id + "-trace", Route: "/compile", Status: status,
		Spans: []obs.Span{{Name: "parse", DurUS: wallUS / 2, Depth: 1}, {Name: "compile", DurUS: wallUS, Phase: true}},
	}
}

// recentList and slowList are the two listings of List, unfiltered.
func recentList(f *FlightRecorder, limit int) []Record {
	out, _, _ := f.List(limit, "")
	return out
}

func slowList(f *FlightRecorder, limit int) []Record {
	_, out, _ := f.List(limit, "")
	return out
}

func TestFlightRingEvictionAndLookup(t *testing.T) {
	f := NewFlightRecorder(3, 2, 100*time.Millisecond)
	for i := 0; i < 5; i++ {
		f.Add(rec(fmt.Sprintf("r%d", i), 10, 200))
	}
	if st := f.Stats(); st.Recent != 3 || st.Added != 5 || st.SlowRetained != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if _, ok := f.Get("r0"); ok {
		t.Fatal("evicted record still resolvable")
	}
	got, ok := f.Get("r4")
	if !ok || len(got.Spans) != 2 || got.WallUS != 10 || len(got.Phases) != 1 || got.Phases["compile"] != 10 {
		t.Fatalf("r4 = %+v ok=%v, want its spans and their phase summary", got, ok)
	}
	ids := recentList(f, 0)
	if len(ids) != 3 || ids[0].ID != "r4" || ids[2].ID != "r2" {
		t.Fatalf("recent = %+v", ids)
	}
	if ids[0].Spans != nil || ids[0].Phases == nil {
		t.Fatal("listing leaked the spans or lost the phase summary")
	}
	if lim := recentList(f, 2); len(lim) != 2 || lim[0].ID != "r4" {
		t.Fatalf("limited recent = %+v", lim)
	}
}

// TestFlightSlowRetention pins the two-store contract: slow and
// errored requests survive ring churn.
func TestFlightSlowRetention(t *testing.T) {
	f := NewFlightRecorder(2, 4, 50*time.Millisecond)
	f.Add(rec("slow1", 60_000, 200)) // 60ms >= 50ms threshold
	f.Add(rec("err1", 10, 429))
	for i := 0; i < 10; i++ {
		f.Add(rec(fmt.Sprintf("fast%d", i), 10, 200))
	}
	// Both are long gone from the 2-deep ring but still resolve.
	got, ok := f.Get("slow1")
	if !ok || !got.Slow {
		t.Fatalf("slow1 = %+v ok=%v", got, ok)
	}
	if got, ok := f.Get("err1"); !ok || got.Status != 429 {
		t.Fatalf("err1 = %+v ok=%v", got, ok)
	}
	slow := slowList(f, 0)
	if len(slow) != 2 || slow[0].ID != "err1" || slow[1].ID != "slow1" {
		t.Fatalf("slow store = %+v", slow)
	}
	if st := f.Stats(); st.Retained != 2 || st.SlowRetained != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// The slow store is bounded too.
	for i := 0; i < 10; i++ {
		f.Add(rec(fmt.Sprintf("e%d", i), 10, 500))
	}
	if st := f.Stats(); st.SlowRetained != 4 {
		t.Fatalf("slow store overgrew: %+v", st)
	}
	if _, ok := f.Get("slow1"); ok {
		t.Fatal("evicted slow record still resolvable")
	}
}

func TestFlightDisabledAndNil(t *testing.T) {
	var nilF *FlightRecorder
	nilF.Add(rec("x", 1, 200))
	if _, ok := nilF.Get("x"); ok || recentList(nilF, 0) != nil || slowList(nilF, 0) != nil {
		t.Fatal("nil recorder not inert")
	}
	if nilF.Stats() != (FlightStats{}) {
		t.Fatal("nil stats not zero")
	}
	// cap<=0 disables the ring but errors are still retained.
	f := NewFlightRecorder(0, 2, 0)
	f.Add(rec("ok", 1, 200))
	f.Add(rec("bad", 1, 500))
	if _, ok := f.Get("ok"); ok {
		t.Fatal("disabled ring retained a record")
	}
	if _, ok := f.Get("bad"); !ok {
		t.Fatal("errored record not retained")
	}
	// thresh==0 never marks slow.
	if got, _ := f.Get("bad"); got.Slow {
		t.Fatal("zero threshold marked a record slow")
	}
}

// TestFlightConcurrent exercises the recorder under concurrent
// writers and readers (run with -race).
func TestFlightConcurrent(t *testing.T) {
	f := NewFlightRecorder(16, 8, time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				status := 200
				if i%7 == 0 {
					status = 503
				}
				f.Add(rec(id, int64(i)*100, status))
				f.Get(id)
				recentList(f, 4)
				slowList(f, 4)
				f.Stats()
			}
		}(w)
	}
	wg.Wait()
	if st := f.Stats(); st.Added != 800 || st.Recent != 16 || st.SlowRetained != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFlightNewestFirstAcrossWraps pins what the listings promise after
// the ring has wrapped several times: newest first, limit <= 0 meaning
// everything retained, and Get resolving the newest of two records that
// share an id.
func TestFlightNewestFirstAcrossWraps(t *testing.T) {
	f := NewFlightRecorder(4, 1, 0)
	for i := 0; i < 11; i++ {
		r := rec(fmt.Sprintf("r%d", i%9), int64(i), 200) // r0 and r1 come twice
		f.Add(r)
	}
	for _, limit := range []int{-1, 0, 1, 3, 4, 9} {
		got := recentList(f, limit)
		want := 4
		if limit > 0 && limit < 4 {
			want = limit
		}
		if len(got) != want {
			t.Fatalf("Recent(%d) returned %d records, want %d", limit, len(got), want)
		}
		for i, r := range got {
			if r.WallUS != int64(10-i) {
				t.Fatalf("Recent(%d)[%d] is the request of wall %d, want %d", limit, i, r.WallUS, 10-i)
			}
		}
	}
	if got, ok := f.Get("r1"); !ok || got.WallUS != 10 {
		t.Fatalf("Get(r1) = wall %d ok=%v, want the newer record (wall 10)", got.WallUS, ok)
	}
	if _, ok := f.Get("r5"); ok {
		t.Fatal("a record the ring evicted still resolves")
	}
	// Capacity 1, the slow store: only the newest errored record stays.
	f.Add(rec("e1", 1, 500))
	f.Add(rec("e2", 1, 500))
	if slow := slowList(f, 0); len(slow) != 1 || slow[0].ID != "e2" {
		t.Fatalf("slow store of capacity 1 = %+v", slow)
	}
}

// TestFlightConcurrentWraparound hammers a small ring with many
// concurrent writers so every Add past the first few evicts — the
// wraparound path — while readers race Get, List and Stats, a registry
// absorbing and scraping beside them as in the daemon. Run under -race
// this pins the locking; the post-conditions pin the semantics: exactly
// cap records retained, all of them records that were actually written,
// no duplicates, and each writer's surviving records still in its own
// write order.
func TestFlightConcurrentWraparound(t *testing.T) {
	const (
		cap     = 8
		writers = 6
		perW    = 200 // 1200 adds into 8 slots: constant eviction
	)
	f := NewFlightRecorder(cap, cap, 0)
	reg := obs.NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				id := fmt.Sprintf("w%d-%04d", w, i)
				r := obs.New()
				r.Add("place.comb.groups", int64(w+1))
				r.AddDecision(obs.Decision{Entry: i, SubsumedBy: -1, Group: -1})
				reg.Absorb(r, "ok")
				rc := rec(id, 10, 200)
				rc.Data = &obs.MetricsDoc{Decisions: r.Decisions(), Counters: r.Counters()}
				f.Add(rc)
				if i%16 == 0 {
					f.List(3, FacetDecisions)
					f.Get(id)
					f.Stats()
					if err := reg.WritePrometheus(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := reg.Requests(); got != writers*perW {
		t.Fatalf("lost requests: %d != %d", got, writers*perW)
	}
	all, _, st := f.List(0, "")
	if st.Recent != cap || len(all) != cap {
		t.Fatalf("ring retains %d records and lists %d, want %d", st.Recent, len(all), cap)
	}
	seen := map[string]bool{}
	lastSeq := map[int]int{} // per-writer sequence, walking newest → oldest
	for _, r := range all {
		if seen[r.ID] {
			t.Fatalf("duplicate id %q retained", r.ID)
		}
		seen[r.ID] = true
		var w, i int
		if _, err := fmt.Sscanf(r.ID, "w%d-%d", &w, &i); err != nil || w < 0 || w >= writers || i < 0 || i >= perW {
			t.Fatalf("retained id %q was never written", r.ID)
		}
		if prev, ok := lastSeq[w]; ok && i >= prev {
			t.Fatalf("writer %d records out of order: %d then %d (newest first)", w, prev, i)
		}
		lastSeq[w] = i
		got, ok := f.Get(r.ID)
		if !ok || got.Data == nil || got.Data.Decisions[0].Entry != i {
			t.Fatalf("retained id %q does not resolve to its own facets: %+v ok=%v", r.ID, got.Data, ok)
		}
	}
	if got := recentList(f, 3); len(got) != 3 || got[0].ID != all[0].ID {
		t.Fatalf("List(3) = %v, want a prefix of %v", got, all)
	}
}

// TestFlightListHasFacet pins the filtered listing: one walk of each
// store keeps the records carrying the facet, newest first, the stats
// count every such record — not the store's occupancy, and not what the
// limit let through — and a summary names its facets but carries neither
// the spans nor the facet data. The record the slow store keeps
// shares its facets with the ring's.
func TestFlightListHasFacet(t *testing.T) {
	f := NewFlightRecorder(8, 8, 0)
	sim := &obs.MetricsDoc{Attr: &attr.Run{}}
	nat := &obs.MetricsDoc{Decisions: []obs.Decision{{Entry: 1}}, Attr: &attr.Run{}, NativeProf: &prof.NativeProfile{}}
	for i, d := range []*obs.MetricsDoc{nil, sim, {Counters: map[string]int64{"c": 1}}, nat, sim, nil} {
		r := rec(fmt.Sprintf("r%d", i), 10, 200)
		if i == 3 {
			r.Status = 500 // the slow store keeps it too
		}
		r.Data = d
		f.Add(r)
	}
	for _, tc := range []struct {
		has          string
		limit        int
		want         string
		recent, slow int
	}{
		{"", 0, "r5 r4 r3 r2 r1 r0", 6, 1},
		{"", 2, "r5 r4", 6, 1},
		{FacetCritPath, 0, "r4 r3 r1", 3, 1},
		{FacetCritPath, 2, "r4 r3", 3, 1},
		{FacetDecisions, 0, "r3", 1, 1},
		{FacetNativeProf, 5, "r3", 1, 1},
	} {
		got, slow, st := f.List(tc.limit, tc.has)
		var ids []string
		for _, r := range got {
			ids = append(ids, r.ID)
			if r.Spans != nil || r.Data != nil {
				t.Errorf("List(%d, %q): summary %s carries its spans or facet data", tc.limit, tc.has, r.ID)
			}
		}
		if strings.Join(ids, " ") != tc.want || st.Recent != tc.recent || st.SlowRetained != tc.slow || len(slow) != 1 {
			t.Errorf("List(%d, %q) = %v, stats recent %d slow %d (%d listed); want %s, %d, %d",
				tc.limit, tc.has, ids, st.Recent, st.SlowRetained, len(slow), tc.want, tc.recent, tc.slow)
		}
	}
	all := recentList(f, 0)
	if got := strings.Join(all[2].Facets, " "); got != "decisions critpath nativeprof" {
		t.Errorf("r3 names facets %q", got)
	}
	if all[3].Facets != nil || all[0].Facets != nil {
		t.Errorf("counters alone, or no recorder data, named a facet: %v %v", all[3].Facets, all[0].Facets)
	}
	// Churn r3 out of the ring: the slow store still holds the same facets.
	for i := 0; i < 8; i++ {
		f.Add(rec(fmt.Sprintf("x%d", i), 10, 200))
	}
	if got, ok := f.Get("r3"); !ok || got.Data != nat || !got.Has(FacetNativeProf) {
		t.Errorf("r3 after eviction from the ring: %+v ok=%v", got, ok)
	}
	if _, ok := f.Get("r4"); ok {
		t.Error("r4 was neither slow nor errored and still resolves")
	}
}

// BenchmarkFlightAdd is one Add into a full ring at the capacity the
// repository benchmark runs gcaod with (-flight 8192): O(1), where
// shifting the ring down cost a 1.2 MB memmove under the lock.
func BenchmarkFlightAdd(b *testing.B) {
	f := NewFlightRecorder(8192, 8192, time.Second)
	r := rec("r", 10, 200)
	for i := 0; i < 8192; i++ {
		f.Add(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(r)
	}
}
