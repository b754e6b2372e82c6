package cache

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func TestFingerprintCanonical(t *testing.T) {
	a := Fingerprint("src", "main", CanonParams(map[string]int{"n": 4, "steps": 2}), "8")
	b := Fingerprint("src", "main", CanonParams(map[string]int{"steps": 2, "n": 4}), "8")
	if a != b {
		t.Fatalf("param order changed the fingerprint: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint is not hex SHA-256: %q", a)
	}
	// Segment boundaries are unambiguous.
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Fatal("segment boundary collision")
	}
	// Every field is significant.
	base := Fingerprint("src", "main", "n=4", "8")
	for i, other := range []string{
		Fingerprint("src2", "main", "n=4", "8"),
		Fingerprint("src", "main2", "n=4", "8"),
		Fingerprint("src", "main", "n=5", "8"),
		Fingerprint("src", "main", "n=4", "16"),
	} {
		if other == base {
			t.Fatalf("field %d did not affect the fingerprint", i)
		}
	}
}

func TestCanonParamsEmpty(t *testing.T) {
	if got := CanonParams(nil); got != "" {
		t.Fatalf("CanonParams(nil) = %q", got)
	}
	if got := CanonParams(map[string]int{"b": 2, "a": 1}); got != "a=1,b=2" {
		t.Fatalf("CanonParams = %q", got)
	}
}

func TestDoHitMiss(t *testing.T) {
	c := New(8, 0)
	calls := 0
	fn := func() (any, error) { calls++; return "v", nil }
	v, out, err := c.Do("k", nil, fn)
	if err != nil || v != "v" || out != Miss {
		t.Fatalf("first Do = %v, %v, %v", v, out, err)
	}
	v, out, err = c.Do("k", nil, fn)
	if err != nil || v != "v" || out != Hit {
		t.Fatalf("second Do = %v, %v, %v", v, out, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(8, 0)
	boom := errors.New("boom")
	calls := 0
	_, out, err := c.Do("k", nil, func() (any, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) || out != Miss {
		t.Fatalf("Do = %v, %v", out, err)
	}
	_, _, err = c.Do("k", nil, func() (any, error) { calls++; return "ok", nil })
	if err != nil || calls != 2 {
		t.Fatalf("error was cached: calls=%d err=%v", calls, err)
	}
	if n := c.Stats().Entries; n != 1 {
		t.Fatalf("entries = %d", n)
	}
}

// TestGetAdd: Get counts a miss until Add makes the value resident and a
// hit after; a second Add of a resident key keeps the first value; Add
// respects both bounds as Do does, and Get moves what it finds to the
// front of the recency list.
func TestGetAdd(t *testing.T) {
	c := New(2, 250)
	if v, ok := c.Get([]byte("k")); ok || v != nil {
		t.Fatalf("Get on an empty cache = %v, %v", v, ok)
	}
	c.Add("k", "first", 100)
	c.Add("k", "second", 100)
	if v, ok := c.Get([]byte("k")); !ok || v != "first" {
		t.Fatalf("Get after two Adds = %v, %v, want the first value", v, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 100 {
		t.Fatalf("stats = %+v, want one hit, one miss, one 100-byte entry", st)
	}
	c.Add("j", "j", 100)
	c.Get([]byte("k")) // k is now the most recent
	c.Add("l", "l", 100)
	if _, ok := c.Get([]byte("j")); ok {
		t.Fatal("the least recently used key survived the byte bound")
	}
	if _, ok := c.Get([]byte("k")); !ok {
		t.Fatal("the key Get moved to the front was evicted")
	}
	c.Add("m", "m", 0)
	if st := c.Stats(); st.Entries != 2 || st.Bytes != 101 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want two entries of 101 bytes after two evictions", st)
	}
}

func TestEntryBoundEviction(t *testing.T) {
	c := New(4, 0)
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("k%d", i)
		c.Do(key, nil, func() (any, error) { return i, nil })
	}
	st := c.Stats()
	if st.Entries != 4 || st.Evictions != 4 {
		t.Fatalf("stats = %+v, want 4 entries and 4 evictions", st)
	}
	// The most recent keys survive, the oldest were evicted.
	if _, out, _ := c.Do("k7", nil, func() (any, error) { return -1, nil }); out != Hit {
		t.Fatal("most recent key evicted")
	}
	if _, out, _ := c.Do("k0", nil, func() (any, error) { return -1, nil }); out != Miss {
		t.Fatal("oldest key still resident")
	}
}

// TestExactCapacity: a cache bounded to n entries holds n distinct
// fingerprint keys and evicts none of them; bounded to n entries' bytes
// instead, the same. Only the next key evicts, and exactly one entry.
func TestExactCapacity(t *testing.T) {
	size := func(any) int64 { return 100 }
	for _, n := range []int{256, 1024} {
		for _, c := range []*Cache{New(n, 0), New(1<<30, int64(n)*100)} {
			for i := 0; i < n; i++ {
				c.Do(Fingerprint("src", strconv.Itoa(i)), size, func() (any, error) { return i, nil })
			}
			if st := c.Stats(); st.Entries != n || st.Evictions != 0 {
				t.Fatalf("n=%d: stats = %+v, want %d entries and no eviction", n, st, n)
			}
			c.Do(Fingerprint("src", "one more"), size, func() (any, error) { return -1, nil })
			if st := c.Stats(); st.Entries != n || st.Evictions != 1 {
				t.Fatalf("n=%d, one past the bound: stats = %+v, want %d entries and one eviction", n, st, n)
			}
		}
	}
}

func TestByteBoundEviction(t *testing.T) {
	size := func(any) int64 { return 100 }
	c := New(100, 250) // two 100-byte entries fit
	for i := 0; i < 3; i++ {
		c.Do(fmt.Sprintf("k%d", i), size, func() (any, error) { return i, nil })
	}
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 200 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 200 bytes / 1 eviction", st)
	}
	// A single oversized value is admitted (never self-evicts) but
	// pushes everything else out.
	big := func(any) int64 { return 1 << 20 }
	c.Do("huge", big, func() (any, error) { return "x", nil })
	st = c.Stats()
	if st.Entries != 1 || st.Bytes != 1<<20 {
		t.Fatalf("oversized insert: stats = %+v", st)
	}
}

func TestLRURecencyOrder(t *testing.T) {
	c := New(2, 0)
	c.Do("a", nil, func() (any, error) { return 1, nil })
	c.Do("b", nil, func() (any, error) { return 2, nil })
	c.Do("a", nil, func() (any, error) { return -1, nil }) // bump a
	c.Do("c", nil, func() (any, error) { return 3, nil })  // evicts b
	if _, out, _ := c.Do("a", nil, func() (any, error) { return -1, nil }); out != Hit {
		t.Fatal("recently used key evicted")
	}
	if _, out, _ := c.Do("b", nil, func() (any, error) { return 2, nil }); out != Miss {
		t.Fatal("least recently used key survived")
	}
}

// TestSingleflightExactlyOnce is the dedup contract: N concurrent
// identical requests trigger exactly one computation, and the counters
// prove it (misses == 1, everything else a hit or an in-flight wait).
func TestSingleflightExactlyOnce(t *testing.T) {
	c := New(8, 0)
	const goroutines = 32
	var calls atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			v, _, err := c.Do("same", nil, func() (any, error) {
				calls.Add(1)
				return "result", nil
			})
			if err != nil || v != "result" {
				t.Errorf("Do = %v, %v", v, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.InflightWaits != goroutines-1 {
		t.Fatalf("hits (%d) + waits (%d) != %d", st.Hits, st.InflightWaits, goroutines-1)
	}
}

// TestPanicSettlesFlight: a computation that panics takes its flight
// with it. The leader and every waiter already coalesced on the key see
// the panic instead of blocking forever, nothing is cached, and the next
// call for the key computes afresh.
func TestPanicSettlesFlight(t *testing.T) {
	c := New(8, 0)
	const waiters = 4
	caught := make(chan any, waiters+1)
	do := func(fn func() (any, error)) {
		defer func() { caught <- recover() }()
		c.Do("poison", nil, fn)
	}
	go do(func() (any, error) {
		for c.Stats().InflightWaits < waiters {
			runtime.Gosched()
		}
		panic("section: rank mismatch")
	})
	for c.Stats().Misses < 1 {
		runtime.Gosched()
	}
	for i := 0; i < waiters; i++ {
		go do(func() (any, error) { return nil, errors.New("a waiter computed") })
	}
	for i := 0; i < waiters+1; i++ {
		if r := <-caught; r != "section: rank mismatch" {
			t.Fatalf("caller %d recovered %v, want the computation's panic", i, r)
		}
	}
	v, out, err := c.Do("poison", nil, func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" || out != Miss {
		t.Fatalf("Do after a panicked flight = %v, %v, %v; want a fresh computation", v, out, err)
	}
}

// TestConcurrentHammer mixes identical and distinct keys under
// eviction pressure; run with -race. Each distinct key's computation
// must happen at least once and the value must always be the key's own.
func TestConcurrentHammer(t *testing.T) {
	c := New(8, 4096) // small: forces constant eviction
	const (
		goroutines = 16
		iters      = 200
		keys       = 24
	)
	size := func(any) int64 { return 256 }
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g + i) % keys
				key := fmt.Sprintf("key%d", k)
				v, _, err := c.Do(key, size, func() (any, error) {
					return k, nil
				})
				if err != nil {
					t.Errorf("Do(%s): %v", key, err)
					return
				}
				if v.(int) != k {
					t.Errorf("Do(%s) = %v, want %d", key, v, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses+st.InflightWaits != goroutines*iters {
		t.Fatalf("counter sum %d != %d operations",
			st.Hits+st.Misses+st.InflightWaits, goroutines*iters)
	}
	if st.Entries > 8 {
		t.Fatalf("entry bound violated: %d resident", st.Entries)
	}
}
