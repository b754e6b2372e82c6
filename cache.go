package gcao

import (
	"strconv"

	"gcao/internal/cache"
)

// CacheTierStats re-exports one cache tier's snapshot: occupancy,
// bounds, and hit/miss/dedup/eviction counters.
type CacheTierStats = cache.Stats

// CacheStats is the two-tier snapshot of a compilation cache.
type CacheStats struct {
	Compile CacheTierStats `json:"compile"`
	Place   CacheTierStats `json:"place"`
}

// CacheOutcome reports how a cached operation was satisfied: a miss
// computed the value, a hit found it resident, a dedup coalesced onto
// a concurrent identical computation (singleflight).
type CacheOutcome = cache.Outcome

// Cache outcome values.
const (
	CacheMiss  = cache.Miss
	CacheHit   = cache.Hit
	CacheDedup = cache.Wait
)

// CacheOptions sizes a compilation cache. Zero values pick the
// defaults: 1024 entries and 256 MiB per tier, sharded 16 ways.
type CacheOptions struct {
	// MaxEntries bounds each tier's entry count.
	MaxEntries int
	// MaxBytes bounds each tier's estimated resident size; negative
	// disables the byte bound.
	MaxBytes int64
	// Shards sets the lock-striping width.
	Shards int
}

// Cache is a content-addressed compilation cache: analysis results and
// placement outcomes are stored in two separate tiers, keyed by
// canonical SHA-256 fingerprints of everything that determines the
// output (source text, entry routine, parameter binding, processor
// count; plus strategy and placement options for the placement tier).
// Identical concurrent requests are deduplicated so N callers trigger
// exactly one compile — the paper's redundancy-elimination discipline
// applied to the compiler itself.
//
// A cached *Compilation is shared by every request that hits it, which
// is safe: after analysis, placement and simulation only read the
// analysis. Callers pass a per-request Recorder to Place (and
// Placed.SimulateObs) for telemetry, since the cached analysis has no
// recorder of its own.
type Cache struct {
	compile *cache.Cache
	place   *cache.Cache
}

// NewCache builds an empty two-tier compilation cache.
func NewCache(opt CacheOptions) *Cache {
	if opt.MaxEntries <= 0 {
		opt.MaxEntries = 1024
	}
	if opt.MaxBytes == 0 {
		opt.MaxBytes = 256 << 20
	}
	if opt.Shards <= 0 {
		opt.Shards = 16
	}
	return &Cache{
		compile: cache.New(opt.MaxEntries, opt.MaxBytes, opt.Shards),
		place:   cache.New(opt.MaxEntries, opt.MaxBytes, opt.Shards),
	}
}

// Compile is the cached variant of the package-level Compile. On a
// miss the routine is compiled with cfg (whose Recorder receives the
// pipeline telemetry) and the analysis is cached under the content
// fingerprint of (source, params, procs); hits and deduplicated calls
// return the shared analysis without recompiling. The outcome is also
// counted on cfg.Obs as cache.compile.<hit|miss|dedup>.
func (c *Cache) Compile(source string, cfg Config) (*Compilation, CacheOutcome, error) {
	return c.compileKeyed(source, "", cfg)
}

// CompileProgram is the cached variant of the package-level
// CompileProgram; the entry routine name participates in the
// fingerprint, so the same program text compiled from two different
// main routines occupies two distinct entries.
func (c *Cache) CompileProgram(source, main string, cfg Config) (*Compilation, CacheOutcome, error) {
	return c.compileKeyed(source, main, cfg)
}

func (c *Cache) compileKeyed(source, main string, cfg Config) (*Compilation, CacheOutcome, error) {
	fp := cache.Fingerprint("gcao-compile-v1",
		source, main, cache.CanonParams(cfg.Params), strconv.Itoa(cfg.Procs))
	v, out, err := c.compile.Do(fp, compilationSize, func() (any, error) {
		var (
			comp *Compilation
			err  error
		)
		if main == "" {
			comp, err = Compile(source, cfg)
		} else {
			comp, err = CompileProgram(source, main, cfg)
		}
		if err != nil {
			return nil, err
		}
		// Detach the building request's recorder: the cached analysis
		// outlives the request, and every later placement or simulation
		// passes its own recorder explicitly.
		comp.Analysis.Obs = nil
		comp.fingerprint = fp
		return comp, nil
	})
	cfg.Obs.Add("cache.compile."+out.String(), 1)
	if err != nil {
		return nil, out, err
	}
	return v.(*Compilation), out, nil
}

// Place is the cached variant of Compilation.PlaceOptions for
// compilations produced by this cache: the placement is keyed by the
// compilation's fingerprint plus strategy and options, so repeated
// requests reuse the placed result without re-running the global
// algorithm. rec receives the placement telemetry when the placement
// actually runs (on a hit the work — and its telemetry — happened in
// an earlier request) and the outcome counter either way. A
// compilation that did not come from a cache is placed directly and
// reported as a miss.
func (c *Cache) Place(comp *Compilation, s Strategy, opt PlacementOptions, rec *Recorder) (*Placed, CacheOutcome, error) {
	if comp.fingerprint == "" {
		p, err := comp.placeObs(s, opt, rec)
		return p, CacheMiss, err
	}
	key := cache.Fingerprint("gcao-place-v1", comp.fingerprint, s.String(), opt.canon())
	v, out, err := c.place.Do(key, placedSize, func() (any, error) {
		return comp.placeObs(s, opt, rec)
	})
	rec.Add("cache.place."+out.String(), 1)
	if err != nil {
		return nil, out, err
	}
	return v.(*Placed), out, nil
}

// Stats snapshots both tiers.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Compile: c.compile.Stats(), Place: c.place.Stats()}
}

// compilationSize estimates the resident cost of a cached analysis for
// the byte bound. The analysis holds the scalarized body, CFG, SSA and
// per-entry descriptors (candidate lists and the per-level section
// tables); the estimate charges a fixed overhead plus a per-statement
// and per-entry share. The constants are fitted to the live-heap growth
// of the six Fig. 10(a) compilations (88–295 KB each, of which the
// section tables are 0.7–1.1 KB per entry);
// TestCompilationSizeTracksHeap keeps them within 2× of it.
func compilationSize(v any) int64 {
	a := v.(*Compilation).Analysis
	n := int64(24 << 10)
	n += int64(len(a.G.Stmts)) * 512
	n += int64(len(a.Entries)) * (5 << 10)
	return n
}

// placedSize estimates the resident cost of a cached placement. The
// engines idle in its pools are not charged: the garbage collector, not
// the cache, decides how long they stay.
func placedSize(v any) int64 {
	res := v.(*Placed).Result
	n := int64(1 << 10)
	n += int64(len(res.Groups)) * 512
	n += int64(len(res.PosOf)) * 128
	return n
}
