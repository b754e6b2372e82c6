package reqtrace

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func rec(id string, wallUS int64, status int) Record {
	return Record{
		ID: id, TraceID: id + "-trace", Route: "/compile",
		Status: status, WallUS: wallUS,
		Phases: map[string]int64{"compile": wallUS},
		Trace:  &TraceDoc{TraceID: id + "-trace", Root: SpanDoc{Name: "http.compile", DurUS: wallUS}},
	}
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
	if !ok || got.Trace == nil || got.Trace.Root.Name != "http.compile" {
		t.Fatalf("r4 = %+v ok=%v", got, ok)
	}
	ids := f.Recent(0)
	if len(ids) != 3 || ids[0].ID != "r4" || ids[2].ID != "r2" {
		t.Fatalf("recent = %+v", ids)
	}
	if ids[0].Trace != nil {
		t.Fatal("listing leaked the full span tree")
	}
	if lim := f.Recent(2); len(lim) != 2 || lim[0].ID != "r4" {
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
	slow := f.Slow(0)
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
	if _, ok := nilF.Get("x"); ok || nilF.Recent(0) != nil || nilF.Slow(0) != nil {
		t.Fatal("nil recorder not inert")
	}
	if nilF.Stats() != (FlightStats{}) || nilF.Threshold() != 0 {
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
				f.Recent(4)
				f.Slow(4)
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
		got := f.Recent(limit)
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
	if slow := f.Slow(0); len(slow) != 1 || slow[0].ID != "e2" {
		t.Fatalf("slow store of capacity 1 = %+v", slow)
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
