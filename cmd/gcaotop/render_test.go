package main

import (
	"strings"
	"testing"
)

const fixture = `{
  "unix_ns": 1700000000000000000,
  "version": "abc123",
  "uptime_seconds": 3723.4,
  "req_per_sec": 12.5,
  "inflight": 2,
  "routes": [
    {"route": "/compile", "count": 120, "p50_ms": 1.25, "p99_ms": 9.5},
    {"route": "/metrics", "count": 30, "p50_ms": 0.2, "p99_ms": 0.8}
  ],
  "codes": {"200": 148, "429": 2},
  "cache_hit_rate": 0.75,
  "scheduler": {"workers": 4, "queue_depth": 64, "queued": 3, "active": 4,
    "rejected": 2, "expired": 1, "avg_service_us": 1500},
  "queue_wait_p50_ms": 0.4, "queue_wait_p99_ms": 7.1,
  "flight": {"recent": 120, "slow_retained": 5, "threshold_us": 500000},
  "gap_ratio": 3.21, "gap_points": 6
}`

func TestRenderSnapshot(t *testing.T) {
	snap, err := parseSnapshot([]byte(fixture))
	if err != nil {
		t.Fatal(err)
	}
	out := render(snap)
	for _, want := range []string{
		"gcaod abc123",
		"12.5 req/s",
		"inflight 2",
		"queue 3/64",
		"active 4/4 workers",
		"shed 2",
		"hit 75.0%",
		"120 recent / 5 slow",
		"200:148",
		"429:2",
		"/compile",
		"9.50",
		"/metrics",
		"gap    3.21x",
		"6 benchmark×version pair(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderEmptySnapshot(t *testing.T) {
	snap, err := parseSnapshot([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	out := render(snap)
	if !strings.Contains(out, "req/s") {
		t.Fatalf("empty snapshot render broken:\n%s", out)
	}
	if strings.Contains(out, "lower bound") {
		t.Errorf("gap line shown with no measured pairs:\n%s", out)
	}
}

func TestReadEvents(t *testing.T) {
	stream := "data: {\"a\":1}\n\ndata: {\"a\":2}\n\n: comment line\nevent: x\n"
	var got []string
	err := readEvents(strings.NewReader(stream), func(b []byte) error {
		got = append(got, string(b))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != `{"a":1}` || got[1] != `{"a":2}` {
		t.Fatalf("events = %q", got)
	}
}
