package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"gcao/internal/native/prof"
	"gcao/internal/obs/attr"
)

// Registry is the process-global aggregation point of the
// observability layer: per-request Recorders are absorbed into it, and
// it renders the accumulated state in the Prometheus text exposition
// format for scraping. A long-lived server (cmd/gcaod) owns one
// Registry for its whole lifetime while every request gets a fresh
// Recorder, so Absorb must only ever see a recorder once — counter
// values are merged as deltas.
//
// What it exports is the families table below, in that order; label
// values are rendered sorted, so the exposition is byte-deterministic
// given deterministic inputs. The schema is fixed: every label value
// comes from a closed vocabulary (version, status, route, counter or
// phase name, tier, pool, outcome) and every gauge is a constant or read
// at scrape time, so no request adds a series. What one request measured
// — a site's bytes, a run's skew — stays in that request's record.
type Registry struct {
	mu sync.Mutex
	// The samples of every regular family by label value, indexed like
	// the families table: vals for a counter or gauge family, hists for
	// a histogram family.
	vals  [numFamilies]map[string]float64
	hists [numFamilies]map[string]*Histogram

	httpReq   map[string]map[string]int64 // route -> code -> count
	buildInfo string
	// Scrape-time callbacks of the serving layer (see serve.go).
	cacheStats  func() []CacheTierStats
	serverStats func() ServerStats
}

// familyID indexes the families table and the Registry's samples.
type familyID int

// The exported families, in exposition order.
const (
	famBuildInfo familyID = iota
	famRequests
	famHTTPRequests
	famHTTPSeconds
	famQueueWait
	famPipelineCounter
	famPhaseSeconds
	famPlacedMessages
	famCommBytes
	famHRelation
	famNativeSeconds
	famNativeMessages
	famNativeWire
	famNativeHops
	famNativeAlloc
	famNativeBlocked
	famCache
	famServer
	numFamilies
)

// family is one row of the exposition. A regular family — one label,
// samples in Registry.vals or .hists — is all data: typ "counter" or "gauge",
// or buckets for a histogram. An irregular one (two labels, a constant,
// a scrape-time callback) renders itself through write.
type family struct {
	name, typ, help, label string
	buckets                []float64
	write                  func(*strings.Builder, *registrySnapshot)
}

// families declares every exported metric family once; storage,
// snapshot and exposition are loops over it, so a new regular metric is
// an index above, a row here and its observe call.
var families = [numFamilies]family{
	famBuildInfo: {write: writeBuildInfo},
	famRequests: {name: "gcao_requests_total", typ: "counter", label: "status",
		help: "Compile requests absorbed into the registry, by status."},
	famHTTPRequests: {write: writeHTTPRequests},
	famHTTPSeconds: {name: "gcao_http_request_seconds", label: "route", buckets: LatencyBuckets,
		help: "HTTP request latency in seconds, by route."},
	famQueueWait: {name: "gcao_queue_wait_seconds", label: "pool", buckets: LatencyBuckets,
		help: "Scheduler admission-queue wait in seconds, all jobs."},
	famPipelineCounter: {name: "gcao_pipeline_counter_total", typ: "counter", label: "name",
		help: "Aggregated pipeline recorder counters, by dotted counter name."},
	famPhaseSeconds: {name: "gcao_phase_seconds", label: "phase", buckets: LatencyBuckets,
		help: "Pipeline phase latency in seconds, by phase (span) name."},
	famPlacedMessages: {name: "gcao_placed_messages", label: "version", buckets: CountBuckets,
		help: "Placed communication groups per compile, by compiler version."},
	famCommBytes: {name: "gcao_comm_bytes", label: "version", buckets: BytesBuckets,
		help: "Bytes moved per compile (simulated or estimated), by compiler version."},
	famHRelation: {name: "gcao_superstep_hrelation_bytes", label: "version", buckets: BytesBuckets,
		help: "Per-superstep h-relation size in bytes (max in/out per processor), by compiler version."},
	famNativeSeconds: {name: "gcao_native_exec_seconds", label: "version", buckets: LatencyBuckets,
		help: "Native goroutine-backend wall clock per run in seconds, by compiler version."},
	famNativeMessages: {name: "gcao_native_messages_total", typ: "counter", label: "version",
		help: "Point-to-point messages moved by the native backend, by compiler version."},
	famNativeWire: {name: "gcao_native_wire_bytes_total", typ: "counter", label: "version",
		help: "Raw bytes the native backend put on the wire (payload, validity bitmaps and framing), by compiler version."},
	famNativeHops: {name: "gcao_native_collective_hops_total", typ: "counter", label: "version",
		help: "Binomial-tree hops moved by native collectives (gather ascents, broadcast descents), by compiler version."},
	famNativeAlloc: {name: "gcao_native_alloc_bytes_total", typ: "counter", label: "version",
		help: "Payload-buffer bytes the native message fabric allocated because no recycled buffer fit, by compiler version."},
	famNativeBlocked: {name: "gcao_native_blocked_seconds_total", typ: "counter", label: "version",
		help: "Seconds native processors spent blocked in sends, receive waits, barrier trees and SUM collectives, by compiler version."},
	famCache:  {write: writeCacheFamilies},
	famServer: {write: writeServerFamilies},
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	g := &Registry{httpReq: map[string]map[string]int64{}}
	for id, f := range families {
		switch {
		case f.buckets != nil:
			g.hists[id] = map[string]*Histogram{}
		case f.write == nil:
			g.vals[id] = map[string]float64{}
		}
	}
	return g
}

// hist returns (allocating on demand) the labeled histogram of a
// family. Callers hold g.mu.
func (g *Registry) hist(id familyID, label string) *Histogram {
	h := g.hists[id][label]
	if h == nil {
		h = NewHistogram(families[id].buckets)
		g.hists[id][label] = h
	}
	return h
}

// ObserveNativeExec records one native-backend run, labeled by compiler
// version: the run's counts and wall clock and, when it was profiled
// (np non-nil), its blocked time. An unprofiled run leaves that family
// alone — it must not export zeros as measurements. A run's compute skew
// is its own answer, not an aggregate: it stays in the run's profile.
func (g *Registry) ObserveNativeExec(version string, st prof.RunStats, np *prof.NativeProfile) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hist(famNativeSeconds, version).Observe(st.ElapsedSeconds)
	g.vals[famNativeMessages][version] += float64(st.Messages)
	g.vals[famNativeWire][version] += float64(st.WireBytes)
	g.vals[famNativeHops][version] += float64(st.Hops)
	g.vals[famNativeAlloc][version] += float64(st.AllocBytes)
	if np != nil {
		g.vals[famNativeBlocked][version] += np.BlockedSeconds
	}
}

// versions are the compiler versions whose per-compile counters Absorb
// turns into histogram observations.
var versions = []string{"orig", "nored", "comb"}

// Absorb merges one request's recorder into the registry: the request
// is counted under the given status, every counter is added, every
// pipeline span (not the request phases) feeds the phase-latency
// histogram, and
// the per-version placement/simulation counters feed the
// placed-messages and bytes-moved histograms. A nil recorder only
// counts the request.
func (g *Registry) Absorb(rec *Recorder, status string) {
	if g == nil {
		return
	}
	var (
		spans    []Span
		counters map[string]int64
		attrRun  *attr.Run
	)
	if rec != nil {
		spans = rec.Spans()
		counters = rec.Counters()
		attrRun = rec.Attribution()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.vals[famRequests][status]++
	ctr := g.vals[famPipelineCounter]
	for k, v := range counters {
		ctr[k] += float64(v)
	}
	for _, s := range spans {
		if !s.Phase {
			g.hist(famPhaseSeconds, s.Name).Observe(float64(s.DurUS) / 1e6)
		}
	}
	for _, v := range versions {
		if n, ok := counters["place."+v+".groups"]; ok {
			g.hist(famPlacedMessages, v).Observe(float64(n))
		}
		if b, ok := counters["spmd."+v+".bytes"]; ok {
			g.hist(famCommBytes, v).Observe(float64(b))
		}
	}
	if attrRun != nil {
		for _, s := range attrRun.Steps {
			g.hist(famHRelation, attrRun.Version).Observe(float64(s.H()))
		}
	}
}

// ObserveBytes records a bytes-moved-per-compile observation that did
// not come from a simulator run (the daemon feeds analytic estimates
// through this when a request asks for an estimate only).
func (g *Registry) ObserveBytes(version string, bytes float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hist(famCommBytes, version).Observe(bytes)
}

// CacheTierStats is one compilation-cache tier's scrape-time snapshot,
// rendered into the exposition as the gcao_cache_* families with the
// tier name as the label.
type CacheTierStats struct {
	Tier          string
	Entries       int
	Bytes         int64
	Hits          int64
	Misses        int64
	InflightWaits int64
	Evictions     int64
}

// SetCacheStatsFunc registers the callback WritePrometheus invokes at
// scrape time to snapshot the serving layer's cache tiers (nil
// unregisters). The callback must be safe for concurrent use; it is
// called outside the registry lock.
func (g *Registry) SetCacheStatsFunc(fn func() []CacheTierStats) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cacheStats = fn
}

// Requests returns the total number of absorbed requests.
func (g *Registry) Requests() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	var n float64
	for _, v := range g.vals[famRequests] {
		n += v
	}
	return int64(n)
}

// Counter returns an aggregated counter's value.
func (g *Registry) Counter(name string) int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return int64(g.vals[famPipelineCounter][name])
}

// registrySnapshot is the copied registry state rendering reads
// outside the lock.
type registrySnapshot struct {
	vals        [numFamilies]map[string]float64
	hists       [numFamilies]map[string]*Histogram
	httpReq     map[string]map[string]int64
	buildInfo   string
	cacheStats  func() []CacheTierStats
	serverStats func() ServerStats
}

// snapshot copies the registry state so rendering happens outside the
// lock.
func (g *Registry) snapshot() *registrySnapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	snap := &registrySnapshot{
		httpReq:     make(map[string]map[string]int64, len(g.httpReq)),
		buildInfo:   g.buildInfo,
		cacheStats:  g.cacheStats,
		serverStats: g.serverStats,
	}
	for id := range families {
		snap.vals[id] = copyMap(g.vals[id])
		snap.hists[id] = make(map[string]*Histogram, len(g.hists[id]))
		for k, h := range g.hists[id] {
			snap.hists[id][k] = h.clone()
		}
	}
	for route, codes := range g.httpReq {
		snap.httpReq[route] = copyMap(codes)
	}
	return snap
}

func copyMap[V int64 | float64](m map[string]V) map[string]V {
	out := make(map[string]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): # HELP and # TYPE headers per
// family, samples with sorted label values, histograms as cumulative
// _bucket series ending at le="+Inf" plus _sum and _count. A family
// with no samples is omitted.
func (g *Registry) WritePrometheus(w io.Writer) error {
	if g == nil {
		return nil
	}
	snap := g.snapshot()
	var b strings.Builder
	for id, f := range families {
		switch {
		case f.write != nil:
			f.write(&b, snap)
		case f.buckets != nil:
			writeHistFamily(&b, f, snap.hists[id])
		default:
			writeScalarFamily(&b, f, snap.vals[id])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeBuildInfo(b *strings.Builder, snap *registrySnapshot) {
	if snap.buildInfo == "" {
		return
	}
	fmt.Fprintf(b, "# HELP gcao_build_info Build identity; constant 1 labeled by version.\n# TYPE gcao_build_info gauge\n")
	fmt.Fprintf(b, "gcao_build_info{version=%s} 1\n", quoteLabel(snap.buildInfo))
}

// writeCacheFamilies renders the serving layer's cache tiers as the
// gcao_cache_* families, labeled by tier and sampled through the
// registered callback at scrape time.
func writeCacheFamilies(b *strings.Builder, snap *registrySnapshot) {
	if snap.cacheStats == nil {
		return
	}
	tiers := snap.cacheStats()
	column := func(name, typ, help string, value func(CacheTierStats) int64) {
		samples := make(map[string]int64, len(tiers))
		for _, t := range tiers {
			samples[t.Tier] = value(t)
		}
		writeScalarFamily(b, family{name: name, typ: typ, help: help, label: "tier"}, samples)
	}
	column("gcao_cache_hits_total", "counter", "Compilation cache lookups served from a resident entry, by tier.",
		func(t CacheTierStats) int64 { return t.Hits })
	column("gcao_cache_misses_total", "counter", "Compilation cache lookups that computed the value, by tier.",
		func(t CacheTierStats) int64 { return t.Misses })
	column("gcao_cache_inflight_waits_total", "counter", "Lookups coalesced onto a concurrent identical computation (singleflight), by tier.",
		func(t CacheTierStats) int64 { return t.InflightWaits })
	column("gcao_cache_evictions_total", "counter", "Entries evicted to respect the entry or byte bound, by tier.",
		func(t CacheTierStats) int64 { return t.Evictions })
	column("gcao_cache_entries", "gauge", "Entries resident in the compilation cache, by tier.",
		func(t CacheTierStats) int64 { return int64(t.Entries) })
	column("gcao_cache_bytes", "gauge", "Estimated bytes resident in the compilation cache, by tier.",
		func(t CacheTierStats) int64 { return t.Bytes })
}

func writeScalarFamily[V int64 | float64](b *strings.Builder, f family, samples map[string]V) {
	if len(samples) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
	for _, k := range sortedKeys(samples) {
		fmt.Fprintf(b, "%s{%s=%s} %s\n", f.name, f.label, quoteLabel(k), formatValue(float64(samples[k])))
	}
}

func writeHistFamily(b *strings.Builder, f family, hists map[string]*Histogram) {
	if len(hists) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", f.name, f.help, f.name)
	for _, k := range sortedKeys(hists) {
		h := hists[k]
		cum := h.Cumulative()
		lv := quoteLabel(k)
		for i, bound := range h.Bounds() {
			fmt.Fprintf(b, "%s_bucket{%s=%s,le=\"%s\"} %d\n", f.name, f.label, lv, formatValue(bound), cum[i])
		}
		fmt.Fprintf(b, "%s_bucket{%s=%s,le=\"+Inf\"} %d\n", f.name, f.label, lv, cum[len(cum)-1])
		fmt.Fprintf(b, "%s_sum{%s=%s} %s\n", f.name, f.label, lv, formatValue(h.Sum()))
		fmt.Fprintf(b, "%s_count{%s=%s} %d\n", f.name, f.label, lv, h.Count())
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatValue renders a sample value the way Prometheus clients do:
// shortest round-trip representation.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// quoteLabel renders a label value per the exposition format:
// backslash, double quote and newline escaped, wrapped in quotes.
func quoteLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return `"` + s + `"`
}
