// Package cache implements the serving layer's content-addressed
// compilation cache: a size-bounded LRU keyed by canonical SHA-256
// fingerprints of request content, with singleflight deduplication so N
// concurrent identical requests trigger exactly one computation. The
// paper's redundancy-elimination discipline — never repeat
// communication the program already paid for — applied to the compiler
// itself: never repeat an analysis or placement an earlier request
// already paid for.
//
// The cache stores opaque values; gcao layers three tiers on top of it
// (a source's skeleton, analysis results and placement outcomes) with
// separate instances, so a new problem size misses only the tiers whose
// key reads it and a new strategy only the placement tier. The daemon
// keeps a fourth, its request bodies, through Get and Add.
package cache

import (
	"container/list"
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

// Cache is a size-bounded LRU with singleflight deduplication: one
// recency list, byte count and in-flight table behind one mutex, so
// both bounds hold exactly.
type Cache struct {
	mu         sync.Mutex
	ll         *list.List // front = most recently used
	items      map[string]*list.Element
	inflight   map[string]*flight
	bytes      int64
	maxEntries int
	maxBytes   int64 // <= 0 disables the byte bound

	hits      atomic.Int64
	misses    atomic.Int64
	waits     atomic.Int64
	evictions atomic.Int64
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

// New builds a cache bounded to maxEntries entries (at least one) and
// maxBytes of estimated value size; maxBytes <= 0 disables the byte
// bound.
func New(maxEntries int, maxBytes int64) *Cache {
	return &Cache{
		ll:         list.New(),
		items:      map[string]*list.Element{},
		inflight:   map[string]*flight{},
		maxEntries: max(maxEntries, 1),
		maxBytes:   maxBytes,
	}
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
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*lruEntry).val
		c.mu.Unlock()
		c.hits.Add(1)
		return v, Hit, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.waits.Add(1)
		<-fl.done
		if fl.panicked != nil {
			panic(fl.panicked)
		}
		return fl.val, Wait, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	c.misses.Add(1)
	// The flight is settled on every way out of fn, a panic included: left
	// registered, it would block its waiters and every later call for the
	// key forever. A panic is cached no more than an error is, and reaches
	// every caller of the flight — the leader's own, re-raised above the
	// frames that raised it, and the same value in each waiter.
	defer func() {
		fl.panicked = recover()
		keep := fl.panicked == nil && fl.err == nil
		sz := int64(1)
		if keep && size != nil {
			sz = max(size(fl.val), 1)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if keep {
			c.insertLocked(key, fl.val, sz)
		}
		c.mu.Unlock()
		close(fl.done)
		if fl.panicked != nil {
			panic(fl.panicked)
		}
	}()
	fl.val, fl.err = fn()
	return fl.val, Miss, fl.err
}

// Get returns the value resident under key, counting a hit, or counts a
// miss; it computes nothing and waits for nothing. The key is the bytes a
// caller holds, looked up without copying them into a string. Get and Add
// serve a tier that decides only after its own work whether a value is
// worth keeping, which Do, keeping every value its fn returns, cannot.
func (c *Cache) Get(key []byte) (any, bool) {
	c.mu.Lock()
	el, ok := c.items[string(key)]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	v := el.Value.(*lruEntry).val
	c.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Add makes v resident under key with estimated size sz (a non-positive
// estimate charges one byte), evicting from the back as Do does. A key
// already resident keeps its value and only moves to the front: two
// concurrent misses on one key both Add, and the first value stays.
func (c *Cache) Add(key string, v any, sz int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.insertLocked(key, v, max(sz, 1))
}

// insertLocked adds a computed value of estimated size sz at the front
// of the recency list and evicts from the back until the cache is within
// both bounds again. The newest entry itself is never evicted, so a
// single oversized value is admitted rather than thrashing.
func (c *Cache) insertLocked(key string, v any, sz int64) {
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: v, size: sz})
	c.bytes += sz
	for c.ll.Len() > 1 &&
		(c.ll.Len() > c.maxEntries || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		back := c.ll.Back()
		e := back.Value.(*lruEntry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= e.size
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
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	InflightWaits int64 `json:"inflight_waits"`
	Evictions     int64 `json:"evictions"`
}

// Stats snapshots the cache.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, bytes := c.ll.Len(), c.bytes
	c.mu.Unlock()
	return Stats{
		Entries:       entries,
		Bytes:         bytes,
		MaxEntries:    c.maxEntries,
		MaxBytes:      c.maxBytes,
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		InflightWaits: c.waits.Load(),
		Evictions:     c.evictions.Load(),
	}
}
