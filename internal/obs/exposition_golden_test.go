package obs

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"gcao/internal/native/prof"
	"gcao/internal/obs/attr"
)

var update = flag.Bool("update", false, "rewrite testdata/exposition.golden from this revision's WritePrometheus")

const expositionGoldenPath = "testdata/exposition.golden"

// TestExpositionGolden pins /metrics byte for byte: one registry is fed
// every family — regular and irregular — with fixed inputs and
// WritePrometheus must reproduce testdata/exposition.golden, HELP text,
// family order, label order and value formatting included.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.SetBuildInfo("v1.2.3 \"quoted\"")

	rec := New()
	rec.spans = []Span{
		{Name: "parse", DurUS: 120},
		{Name: "place:comb", DurUS: 2500},
		{Name: "parse", DurUS: 3_000_000},
		{Name: "compile", DurUS: 3_200_000, Phase: true}, // a request phase: not exported
	}
	rec.Add("place.comb.entries", 20)
	rec.Add("place.comb.groups", 8)
	rec.Add("place.orig.groups", 18)
	rec.Add("spmd.comb.bytes", 1_000_000)
	rec.SetAttribution(&attr.Run{
		Version: "comb",
		Procs:   4,
		Steps: []attr.Step{
			{Index: 0, Site: "comb/g0@B1.top/NNC", Kind: "NNC", Messages: 4, Bytes: 400, HIn: 100, HOut: 120},
			{Index: 1, Site: "comb/g1@B2.top/SUM", Kind: "SUM", Messages: 3, Bytes: 40, HIn: 40, HOut: 40},
			{Index: 2, Site: "comb/g0@B1.top/NNC", Kind: "NNC", Messages: 4, Bytes: 70000, HIn: 70000, HOut: 120},
		},
	})
	reg.Absorb(rec, "ok")

	rec2 := New()
	rec2.spans = []Span{{Name: "parse", DurUS: 80}, {Name: "simulate:nored", DurUS: 45000}}
	rec2.Add("place.comb.groups", 6)
	rec2.Add("place.nored.groups", 14)
	rec2.Add("spmd.nored.bytes", 123456)
	reg.Absorb(rec2, "ok")
	reg.Absorb(nil, "error")

	reg.ObserveBytes("comb", 4096)
	reg.ObserveBytes("orig", 2.5e6)

	// Native runs on two versions, unprofiled and profiled.
	profiled := func(skew, blocked float64) *prof.NativeProfile {
		return &prof.NativeProfile{SkewRatio: skew, BlockedSeconds: blocked}
	}
	reg.ObserveNativeExec("comb", prof.RunStats{ElapsedSeconds: 0.012, Messages: 96, WireBytes: 4096, Hops: 12}, nil)
	reg.ObserveNativeExec("comb", prof.RunStats{ElapsedSeconds: 0.014, Messages: 96, WireBytes: 4096, Hops: 12, AllocBytes: 512},
		profiled(1.25, 0.004))
	reg.ObserveNativeExec("comb", prof.RunStats{ElapsedSeconds: 0.013, Messages: 96, WireBytes: 4096, Hops: 12},
		profiled(1.5, 0.006))
	reg.ObserveNativeExec("orig", prof.RunStats{ElapsedSeconds: 0.020, Messages: 480, WireBytes: 1_000_000, Hops: 60, AllocBytes: 2048}, nil)
	reg.ObserveNativeExec("orig", prof.RunStats{ElapsedSeconds: 2.5, Messages: 480, WireBytes: 20480, Hops: 60},
		profiled(2, 1.5))

	reg.ObserveHTTP("/compile", 200, 0.003)
	reg.ObserveHTTP("/compile", 200, 0.250)
	reg.ObserveHTTP("/compile", 429, 0.0001)
	reg.ObserveHTTP("/metrics", 200, 0.0005)
	reg.ObserveHTTP("/compile/batch", 500, 12)
	reg.ObserveQueueWait(0.00002)
	reg.ObserveQueueWait(0.3)

	reg.SetCacheStatsFunc(func() []CacheTierStats {
		return []CacheTierStats{
			{Tier: "compile", Entries: 12, Bytes: 1_000_000, Hits: 70, Misses: 30, InflightWaits: 2, Evictions: 1},
			{Tier: "place", Entries: 30, Bytes: 65536, Hits: 210, Misses: 90},
			{Tier: "skeleton", Entries: 4, Bytes: 500_000, Hits: 26, Misses: 4, InflightWaits: 1},
		}
	})
	reg.SetServerStatsFunc(func() ServerStats {
		return ServerStats{
			HTTPInflight: 3, QueueDepth: 5, QueueCapacity: 64, ActiveJobs: 2, Workers: 2,
			AvgServiceSeconds: 0.0042,
			JobOutcomes:       map[string]int64{"completed": 100, "failed": 2, "expired": 1, "rejected": 7},
		}
	})

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := CheckPromText(buf.Bytes()); err != nil {
		t.Fatalf("exposition not parseable: %v", err)
	}
	if *update {
		if err := os.WriteFile(expositionGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(expositionGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition differs from %s\n--- got ---\n%s", expositionGoldenPath, buf.String())
	}
}
