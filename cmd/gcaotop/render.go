package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// snapshot mirrors the fields of gcaod's /debug/live document that the
// dashboard renders. Unknown fields are ignored, so gcaotop tolerates
// a newer daemon.
type snapshot struct {
	UnixNS        int64   `json:"unix_ns"`
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	ReqPerSec     float64 `json:"req_per_sec"`
	Inflight      int64   `json:"inflight"`
	Routes        []struct {
		Route string  `json:"route"`
		Count uint64  `json:"count"`
		P50ms float64 `json:"p50_ms"`
		P99ms float64 `json:"p99_ms"`
	} `json:"routes"`
	Codes        map[string]int64 `json:"codes"`
	CacheHitRate float64          `json:"cache_hit_rate"`
	Sched        struct {
		Workers      int   `json:"workers"`
		QueueDepth   int   `json:"queue_depth"`
		Queued       int64 `json:"queued"`
		Active       int64 `json:"active"`
		Rejected     int64 `json:"rejected"`
		Expired      int64 `json:"expired"`
		AvgServiceUS int64 `json:"avg_service_us"`
	} `json:"scheduler"`
	QueueWaitP50ms float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99ms float64 `json:"queue_wait_p99_ms"`
	Flight         struct {
		Recent       int   `json:"recent"`
		SlowRetained int   `json:"slow_retained"`
		ThresholdUS  int64 `json:"threshold_us"`
	} `json:"flight"`
	GapRatio  float64 `json:"gap_ratio"`
	GapPoints int     `json:"gap_points"`
}

func parseSnapshot(data []byte) (snapshot, error) {
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("decoding live snapshot: %w", err)
	}
	return s, nil
}

// render formats one snapshot as the dashboard text.
func render(s snapshot) string {
	var b strings.Builder
	up := time.Duration(s.UptimeSeconds * float64(time.Second)).Truncate(time.Second)
	fmt.Fprintf(&b, "gcaod %s  up %s  %.1f req/s  inflight %d\n",
		s.Version, up, s.ReqPerSec, s.Inflight)
	fmt.Fprintf(&b, "sched  queue %d/%d  active %d/%d workers  avg service %s  wait p50 %.2fms p99 %.2fms  shed %d  expired %d\n",
		s.Sched.Queued, s.Sched.QueueDepth, s.Sched.Active, s.Sched.Workers,
		time.Duration(s.Sched.AvgServiceUS)*time.Microsecond,
		s.QueueWaitP50ms, s.QueueWaitP99ms, s.Sched.Rejected, s.Sched.Expired)
	fmt.Fprintf(&b, "cache  hit %.1f%%   flight %d recent / %d slow (threshold %s)\n",
		s.CacheHitRate*100, s.Flight.Recent, s.Flight.SlowRetained,
		time.Duration(s.Flight.ThresholdUS)*time.Microsecond)
	if s.GapPoints > 0 {
		fmt.Fprintf(&b, "gap    %.2fx the communication lower bound over %d benchmark×version pair(s)\n",
			s.GapRatio, s.GapPoints)
	}
	if len(s.Codes) > 0 {
		codes := make([]string, 0, len(s.Codes))
		for c := range s.Codes {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		parts := make([]string, 0, len(codes))
		for _, c := range codes {
			parts = append(parts, fmt.Sprintf("%s:%d", c, s.Codes[c]))
		}
		fmt.Fprintf(&b, "codes  %s\n", strings.Join(parts, "  "))
	}
	if len(s.Routes) > 0 {
		fmt.Fprintf(&b, "\n%-28s %10s %10s %10s\n", "ROUTE", "COUNT", "P50(ms)", "P99(ms)")
		for _, r := range s.Routes {
			fmt.Fprintf(&b, "%-28s %10d %10.2f %10.2f\n", r.Route, r.Count, r.P50ms, r.P99ms)
		}
	}
	return b.String()
}
