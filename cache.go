package gcao

import (
	"strconv"

	"gcao/internal/ast"
	"gcao/internal/cache"
	"gcao/internal/core"
	"gcao/internal/heapsize"
)

// CacheTierStats re-exports one cache tier's snapshot: occupancy,
// bounds, and hit/miss/dedup/eviction counters.
type CacheTierStats = cache.Stats

// CacheStats is the three-tier snapshot of a compilation cache.
type CacheStats struct {
	Compile  CacheTierStats `json:"compile"`
	Place    CacheTierStats `json:"place"`
	Skeleton CacheTierStats `json:"skeleton"`
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
// defaults: 1024 entries and 256 MiB per tier.
type CacheOptions struct {
	// MaxEntries bounds each tier's entry count.
	MaxEntries int
	// MaxBytes bounds the bytes each tier charges its values: what each
	// holds, counted where it was made — a compilation its analysis under
	// one binding, a skeleton its parsed routine and shared structure, a
	// placement its result (and its Program from its first run on);
	// negative disables the byte bound.
	MaxBytes int64
}

// CompileOutcome reports how the tiers a cached compile went through
// satisfied it. Only a compile-tier miss consults the skeleton tier, so
// Skeleton means something only beside Compile == CacheMiss.
type CompileOutcome struct {
	Compile  CacheOutcome
	Skeleton CacheOutcome
}

// Cache is a content-addressed compilation cache of three tiers, each
// keyed by a canonical SHA-256 fingerprint of everything that determines
// its value: the skeleton tier by (source text, entry routine) — the
// parsed and inlined routine and the structural analysis every parameter
// binding shares; the compile tier by those and (parameter binding,
// processor count) — the analysis under one binding; the place tier by
// the compilation's fingerprint plus strategy.
// Identical concurrent requests are deduplicated so N callers trigger
// exactly one compile — the paper's redundancy-elimination discipline
// applied to the compiler itself — and a known source at a new size pays
// only for the steps that read the size.
//
// A cached *Compilation is shared by every request that hits it, and a
// skeleton by every compilation built from it, which is safe: after
// analysis, placement and simulation only read both, and neither holds a
// recorder — each request hands its own to every call it makes.
type Cache struct {
	compile  *cache.Cache
	place    *cache.Cache
	skeleton *cache.Cache
}

// NewCache builds an empty compilation cache.
func NewCache(opt CacheOptions) *Cache {
	if opt.MaxEntries <= 0 {
		opt.MaxEntries = 1024
	}
	if opt.MaxBytes == 0 {
		opt.MaxBytes = 256 << 20
	}
	tier := func() *cache.Cache { return cache.New(opt.MaxEntries, opt.MaxBytes) }
	return &Cache{compile: tier(), place: tier(), skeleton: tier()}
}

// Compile is the cached variant of the package-level Compile. On a
// miss the routine is compiled with cfg (whose Recorder receives the
// pipeline telemetry) and the analysis is cached under the content
// fingerprint of (source, params, procs) — from the parsed routine and,
// unless the source has array statements, the skeleton an earlier binding
// of the source left in the skeleton tier. Hits and deduplicated calls
// return the shared analysis without recompiling. The outcomes are also
// counted on cfg.Obs as cache.{compile,skeleton}.<hit|miss|dedup>.
func (c *Cache) Compile(source string, cfg Config) (*Compilation, CompileOutcome, error) {
	return c.CompileProgram(source, "", cfg)
}

// CompileProgram is the cached variant of the package-level
// CompileProgram; the entry routine name participates in the
// fingerprints, so the same program text compiled from two different
// main routines occupies two distinct entries of either tier.
func (c *Cache) CompileProgram(source, main string, cfg Config) (*Compilation, CompileOutcome, error) {
	fp := cache.Fingerprint("gcao-compile-v1",
		source, main, cache.CanonParams(cfg.Params), strconv.Itoa(cfg.Procs))
	var out CompileOutcome
	v, compOut, err := c.compile.Do(fp, charge, func() (any, error) {
		comp, skOut, err := c.fromSkeleton(source, main, cfg)
		out.Skeleton = skOut
		cfg.Obs.Add("cache.skeleton."+skOut.String(), 1)
		if err != nil {
			return nil, err
		}
		comp.fingerprint = fp
		return comp, nil
	})
	out.Compile = compOut
	cfg.Obs.Add("cache.compile."+compOut.String(), 1)
	if err != nil {
		return nil, out, err
	}
	return v.(*Compilation), out, nil
}

// front is what the skeleton tier holds for a (source, main): the routine
// as parsed and inlined, the source text its names slice, and its
// skeleton when that serves every binding (nil when the source has array
// statements, whose scalarization reads the sizes: each binding then
// builds its own from the routine).
type front struct {
	routine *ast.Routine
	source  string
	shared  *core.Skeleton
}

// Bytes returns what the front holds: itself, the routine, the source
// text and the shared skeleton.
func (k *front) Bytes() int64 {
	n := heapsize.Of(k) + k.routine.Bytes + int64(len(k.source))
	if k.shared != nil {
		n += k.shared.Bytes()
	}
	return n
}

// fromSkeleton compiles a compile-tier miss through the skeleton tier. The
// call that finds the tier empty compiles the source in full, as the
// package-level CompileProgram does, and leaves routine and skeleton
// behind; every other binding runs sem and the instantiate half only. An
// error is the building binding's own: it is not cached, so the tier is as
// the call found it, and a binding that waited on the failed build takes
// its turn at building instead of the other binding's error.
func (c *Cache) fromSkeleton(source, main string, cfg Config) (*Compilation, CacheOutcome, error) {
	key := cache.Fingerprint("gcao-skeleton-v1", source, main)
	var built *Compilation
	build := func() (any, error) {
		r, err := parseRoutine(source, main, cfg.Obs)
		if err != nil {
			return nil, err
		}
		if built, err = compileRoutine(r, nil, cfg); err != nil {
			return nil, err
		}
		k := &front{routine: r, source: source}
		if sk := built.Analysis.Skeleton; sk.SizeFree() {
			k.shared = sk
		}
		return k, nil
	}
	v, out, err := c.skeleton.Do(key, charge, build)
	for err != nil && out == CacheDedup {
		v, out, err = c.skeleton.Do(key, charge, build)
	}
	if err != nil || built != nil {
		return built, out, err
	}
	k := v.(*front)
	comp, err := compileRoutine(k.routine, k.shared, cfg)
	return comp, out, err
}

// Place is the cached variant of Compilation.Place for compilations
// produced by this cache: the placement is keyed by the compilation's
// fingerprint plus strategy, so repeated requests reuse the placed
// result without re-running the global algorithm. rec receives the
// placement telemetry when the placement actually runs (on a hit the
// work — and its telemetry — happened in an earlier request) and the
// outcome counter either way. A compilation that did not come from a
// cache is placed directly and reported as a miss.
func (c *Cache) Place(comp *Compilation, s Strategy, rec *Recorder) (*Placed, CacheOutcome, error) {
	if comp.fingerprint == "" {
		p, err := comp.Place(s, rec)
		return p, CacheMiss, err
	}
	key := cache.Fingerprint("gcao-place-v1", comp.fingerprint, s.String())
	v, out, err := c.place.Do(key, charge, func() (any, error) {
		p, err := comp.Place(s, rec)
		if err == nil {
			p.tier, p.key = c.place, key
		}
		return p, err
	})
	rec.Add("cache.place."+out.String(), 1)
	if err != nil {
		return nil, out, err
	}
	return v.(*Placed), out, nil
}

// Stats snapshots the three tiers.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Compile: c.compile.Stats(), Place: c.place.Stats(), Skeleton: c.skeleton.Stats()}
}

// charge is what every tier charges a value: what it holds, counted where
// it was made — a compilation's, a skeleton-tier front's and a
// placement's Bytes.
func charge(v any) int64 { return v.(interface{ Bytes() int64 }).Bytes() }
