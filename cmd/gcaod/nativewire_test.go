package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"testing"

	"gcao"
	"gcao/internal/bench"
	"gcao/internal/native/prof"
)

// TestNativeResponseWire pins the `native` object of a backend:"native"
// /compile response as clients read it — the key set and every value,
// cross-checked against a direct native run of the same placement (the
// counts are deterministic) and the profile the request's flight record
// holds.
// gravity mixes ghost exchanges with SUM collectives, so every op kind
// the object counts is exercised.
func TestNativeResponseWire(t *testing.T) {
	_, ts := testServer(t)
	pr, err := bench.ByName("gravity", "main")
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"source": pr.Source, "params": pr.Params(12), "procs": 4,
		"strategy": "comb", "simulate": true, "backend": "native",
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var doc struct {
		Native map[string]any `json:"native"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var retained struct {
		Profile *prof.NativeProfile `json:"profile"`
	}
	fetchFacet(t, ts, resp.Header.Get("X-Request-Id"), "nativeprof", &retained)
	np := retained.Profile
	if doc.Native == nil || np == nil {
		t.Fatalf("native object or profile missing: %v", doc.Native)
	}

	c, err := gcao.Compile(pr.Source, gcao.Config{Params: pr.Params(12), Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	placed, err := c.Place(gcao.Combine, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := placed.RunNative(nil)
	if err != nil {
		t.Fatal(err)
	}
	st := direct.Stats
	want := map[string]any{
		"procs":           4.0,
		"messages":        float64(st.Messages),
		"bytes_moved":     float64(st.Bytes),
		"wire_bytes":      float64(st.WireBytes),
		"collective_hops": float64(st.Hops),
		"alloc_bytes":     float64(st.AllocBytes),
		"skew_ratio":      np.SkewRatio,
		"blocked_seconds": np.BlockedSeconds,
	}
	for k, v := range want {
		if doc.Native[k] != v {
			t.Errorf("native.%s = %v, want %v", k, doc.Native[k], v)
		}
	}
	if s, _ := doc.Native["seconds"].(float64); s <= 0 {
		t.Errorf("native.seconds = %v, want > 0", doc.Native["seconds"])
	}
	ops, _ := doc.Native["ops"].(map[string]any)
	if len(ops) != len(st.Ops) || st.Ops["exchange"] <= 0 || st.Ops["global-sum"] <= 0 {
		t.Errorf("native.ops = %v, want %v", ops, st.Ops)
	}
	for k, n := range st.Ops {
		if ops[k] != float64(n) {
			t.Errorf("native.ops[%s] = %v, want %d", k, ops[k], n)
		}
	}
	// The object may grow only by counts the run's Stats record already
	// holds.
	var keys []string
	for k := range doc.Native {
		if k != "collectives" && k != "barriers" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	const wire = "alloc_bytes blocked_seconds bytes_moved collective_hops messages ops procs seconds skew_ratio wire_bytes"
	if got := strings.Join(keys, " "); got != wire {
		t.Errorf("native keys = %s\nwant          %s", got, wire)
	}
}
