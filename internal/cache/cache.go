// Package cache implements the serving layer's content-addressed
// compilation cache: a sharded, size-bounded LRU keyed by canonical
// SHA-256 fingerprints of request content, with singleflight
// deduplication so N concurrent identical requests trigger exactly one
// computation. The paper's redundancy-elimination discipline — never
// repeat communication the program already paid for — applied to the
// compiler itself: never repeat an analysis or placement an earlier
// request already paid for.
//
// The cache stores opaque values; gcao layers three tiers on top of it
// (a source's skeleton, analysis results and placement outcomes) with
// separate instances, so a new problem size misses only the tiers whose
// key reads it and a placement-option change only the placement tier.
package cache

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// Outcome classifies how Do satisfied a lookup.
type Outcome int

const (
	// Miss: this call computed the value (the singleflight leader).
	Miss Outcome = iota
	// Hit: the value was already resident in the LRU.
	Hit
	// Wait: a concurrent identical call was already computing the
	// value; this call waited for its result instead of recomputing.
	Wait
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Wait:
		return "dedup"
	default:
		return "miss"
	}
}

// Cache is a sharded, size-bounded LRU with singleflight deduplication.
// Shards reduce lock contention under concurrent serving load; every
// key maps to one shard by FNV-1a hash, and each shard holds its own
// recency list, byte budget share and in-flight table.
type Cache struct {
	shards     []*shard
	maxEntries int   // per shard
	maxBytes   int64 // per shard; <= 0 disables the byte bound
	// whole-cache configuration, reported by Stats
	cfgEntries int
	cfgBytes   int64

	hits      atomic.Int64
	misses    atomic.Int64
	waits     atomic.Int64
	evictions atomic.Int64
}

type shard struct {
	mu       sync.Mutex
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*flight
	bytes    int64
}

type lruEntry struct {
	key  string
	val  any
	size int64
}

// flight is one in-progress computation; waiters block on done and
// then read val/err — or panicked, when fn did not return — which are
// written exactly once before the close.
type flight struct {
	done     chan struct{}
	val      any
	err      error
	panicked any
}

// New builds a cache bounded to maxEntries entries and roughly
// maxBytes of estimated value size, split across shards. maxEntries is
// clamped to at least one per shard; maxBytes <= 0 disables the byte
// bound; shards < 1 defaults to 16.
func New(maxEntries int, maxBytes int64, shards int) *Cache {
	if shards < 1 {
		shards = 16
	}
	if maxEntries < 1 {
		maxEntries = 1
	}
	if shards > maxEntries {
		shards = maxEntries
	}
	c := &Cache{
		shards:     make([]*shard, shards),
		maxEntries: (maxEntries + shards - 1) / shards,
		cfgEntries: maxEntries,
		cfgBytes:   maxBytes,
	}
	if maxBytes > 0 {
		c.maxBytes = maxBytes / int64(shards)
		if c.maxBytes < 1 {
			c.maxBytes = 1
		}
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			ll:       list.New(),
			items:    map[string]*list.Element{},
			inflight: map[string]*flight{},
		}
	}
	return c
}

func (c *Cache) shard(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[h.Sum32()%uint32(len(c.shards))]
}

// Do returns the value for key, computing it with fn on a miss.
// Concurrent Do calls for the same key are deduplicated: exactly one
// caller (the leader) runs fn while the rest wait for its result.
// Errors are delivered to every waiter of the flight and are never
// cached, so a later call retries; a panic in fn likewise panics in
// every caller of the flight and leaves nothing behind. size estimates
// the resident cost of a freshly computed value for the byte bound
// (nil, or a non-positive estimate, charges one byte).
func (c *Cache) Do(key string, size func(any) int64, fn func() (any, error)) (any, Outcome, error) {
	sh := c.shard(key)
	sh.mu.Lock()
	if el, ok := sh.items[key]; ok {
		sh.ll.MoveToFront(el)
		v := el.Value.(*lruEntry).val
		sh.mu.Unlock()
		c.hits.Add(1)
		return v, Hit, nil
	}
	if fl, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		c.waits.Add(1)
		<-fl.done
		if fl.panicked != nil {
			panic(fl.panicked)
		}
		return fl.val, Wait, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	sh.inflight[key] = fl
	sh.mu.Unlock()

	c.misses.Add(1)
	// The flight is settled on every way out of fn, a panic included: left
	// registered, it would block its waiters and every later call for the
	// key forever. A panic is cached no more than an error is, and reaches
	// every caller of the flight — the leader's own, re-raised above the
	// frames that raised it, and the same value in each waiter.
	defer func() {
		fl.panicked = recover()
		sh.mu.Lock()
		delete(sh.inflight, key)
		if fl.panicked == nil && fl.err == nil {
			c.insertLocked(sh, key, fl.val, size)
		}
		sh.mu.Unlock()
		close(fl.done)
		if fl.panicked != nil {
			panic(fl.panicked)
		}
	}()
	fl.val, fl.err = fn()
	return fl.val, Miss, fl.err
}

// insertLocked adds a computed value at the front of the shard's
// recency list and evicts from the back until the shard is within both
// bounds again. The newest entry itself is never evicted, so a single
// oversized value is admitted rather than thrashing.
func (c *Cache) insertLocked(sh *shard, key string, v any, size func(any) int64) {
	sz := int64(1)
	if size != nil {
		if s := size(v); s > 0 {
			sz = s
		}
	}
	el := sh.ll.PushFront(&lruEntry{key: key, val: v, size: sz})
	sh.items[key] = el
	sh.bytes += sz
	for sh.ll.Len() > 1 &&
		(sh.ll.Len() > c.maxEntries || (c.maxBytes > 0 && sh.bytes > c.maxBytes)) {
		back := sh.ll.Back()
		e := back.Value.(*lruEntry)
		sh.ll.Remove(back)
		delete(sh.items, e.key)
		sh.bytes -= e.size
		c.evictions.Add(1)
	}
}

// Stats is a point-in-time snapshot of the cache: occupancy, configured
// bounds, and the lifetime hit/miss/dedup/eviction counters.
type Stats struct {
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	MaxEntries    int   `json:"max_entries"`
	MaxBytes      int64 `json:"max_bytes"`
	Shards        int   `json:"shards"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	InflightWaits int64 `json:"inflight_waits"`
	Evictions     int64 `json:"evictions"`
}

// Stats snapshots the cache.
func (c *Cache) Stats() Stats {
	st := Stats{
		MaxEntries:    c.cfgEntries,
		MaxBytes:      c.cfgBytes,
		Shards:        len(c.shards),
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		InflightWaits: c.waits.Load(),
		Evictions:     c.evictions.Load(),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st.Entries += sh.ll.Len()
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}
