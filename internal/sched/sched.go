// Package sched implements the daemon's placement scheduler: a bounded
// worker pool with an admission queue. Admission is
// non-blocking — when the queue is full the submission is rejected
// immediately with ErrQueueFull so the caller can shed load (the HTTP
// layer maps it to 429 + Retry-After) instead of letting latency grow
// without bound. Every job carries a context; a job whose deadline
// expires while it waits in the queue is skipped, not run, so a burst
// never wastes workers on requests nobody is waiting for anymore. One
// request is one job: a caller with many jobs submits them concurrently,
// and each is admitted or shed on its own.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// ErrQueueFull is returned by Submit when the admission queue has no
// room; the caller should shed the request (HTTP 429) and retry later.
var ErrQueueFull = errors.New("sched: admission queue full")

// ErrClosed is returned for jobs still queued when the pool shuts
// down, and for submissions after Close.
var ErrClosed = errors.New("sched: pool closed")

// PanicError is the error of a job whose task panicked on a pool
// worker: the panic value's text, and the worker goroutine's stack at
// the point of the panic for whoever debugs it. The worker survives.
type PanicError struct {
	Value string
	Stack []byte
}

func (e *PanicError) Error() string { return "sched: task panicked: " + e.Value }

// Task is one unit of work; the context carries the request deadline.
type Task func(ctx context.Context) (any, error)

type result struct {
	v   any
	err error
}

type job struct {
	ctx context.Context
	fn  Task
	out chan result // buffered: workers never block delivering
	enq time.Time   // admission time, for the queue-wait ledger
}

// Pool is a fixed set of workers fed from a bounded admission queue.
type Pool struct {
	queue chan *job
	stop  chan struct{}
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool

	workers int
	depth   int

	queued    atomic.Int64
	active    atomic.Int64
	submitted atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	expired   atomic.Int64

	// avgServiceNS is an EWMA of per-job run time (α = 1/8), the
	// basis of queue-drain estimates like the HTTP layer's derived
	// Retry-After.
	avgServiceNS atomic.Int64
	// onQueueWait, when set, observes every job's admission→dequeue
	// wait (including jobs that expired in the queue — that wait is
	// exactly the signal a saturation ledger needs).
	onQueueWait func(time.Duration)
}

// New starts a pool of workers fed from an admission queue of the
// given depth. workers < 1 defaults to GOMAXPROCS; depth < 1 defaults
// to 4×workers.
func New(workers, depth int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth < 1 {
		depth = 4 * workers
	}
	p := &Pool{
		queue:   make(chan *job, depth),
		stop:    make(chan struct{}),
		workers: workers,
		depth:   depth,
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case j := <-p.queue:
			p.queued.Add(-1)
			p.run(j)
		}
	}
}

func (p *Pool) run(j *job) {
	if p.onQueueWait != nil {
		p.onQueueWait(time.Since(j.enq))
	}
	// A job whose caller already gave up (queue wait exceeded the
	// deadline) is skipped rather than run.
	if err := j.ctx.Err(); err != nil {
		p.expired.Add(1)
		j.out <- result{nil, err}
		return
	}
	p.active.Add(1)
	start := time.Now()
	v, err := j.call()
	p.observeService(time.Since(start))
	p.active.Add(-1)
	if err != nil {
		p.failed.Add(1)
	} else {
		p.completed.Add(1)
	}
	j.out <- result{v, err}
}

// call runs the job's task and contains a panic into a *PanicError:
// analysis, placement and lowering keep invariant panics, and a request
// that trips one must fail alone instead of taking the process and
// every other request down with it.
func (j *job) call() (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, &PanicError{Value: fmt.Sprint(r), Stack: debug.Stack()}
		}
	}()
	return j.fn(j.ctx)
}

// observeService folds one job's run time into the service-time EWMA.
func (p *Pool) observeService(d time.Duration) {
	for {
		old := p.avgServiceNS.Load()
		next := int64(d)
		if old > 0 {
			next = old + (int64(d)-old)/8
		}
		if p.avgServiceNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// SetQueueWaitObserver registers a callback receiving every job's
// queue wait (admission to dequeue). Set it before the pool serves
// traffic; the callback must be safe for concurrent use.
func (p *Pool) SetQueueWaitObserver(fn func(time.Duration)) {
	p.onQueueWait = fn
}

// avgService returns the EWMA of per-job run time (0 before the
// first job completes).
func (p *Pool) avgService() time.Duration {
	return time.Duration(p.avgServiceNS.Load())
}

// EstimateDrain estimates how long the current backlog (queued plus
// running jobs) will take to clear: backlog × average service time
// spread over the workers. It returns 0 until a service time has
// been observed.
func (p *Pool) EstimateDrain() time.Duration {
	avg := p.avgServiceNS.Load()
	if avg <= 0 {
		return 0
	}
	backlog := p.queued.Load() + p.active.Load()
	return time.Duration(backlog * avg / int64(p.workers))
}

// Submit enqueues one task and waits for its result. It returns
// ErrQueueFull immediately when the admission queue is full, ErrClosed
// after Close, and the context's error if the deadline expires first
// (the task itself is then skipped or keeps running to completion in
// the background — its result is discarded).
func (p *Pool) Submit(ctx context.Context, fn Task) (any, error) {
	j := &job{ctx: ctx, fn: fn, out: make(chan result, 1), enq: time.Now()}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	select {
	case p.queue <- j:
		p.submitted.Add(1)
		p.queued.Add(1)
		p.mu.Unlock()
	default:
		p.mu.Unlock()
		p.rejected.Add(1)
		return nil, ErrQueueFull
	}
	select {
	case r := <-j.out:
		return r.v, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close stops the workers and fails every job still in the queue with
// ErrClosed. It is safe to call once; subsequent calls are no-ops.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.stop)
	p.wg.Wait()
	for {
		select {
		case j := <-p.queue:
			p.queued.Add(-1)
			j.out <- result{nil, ErrClosed}
		default:
			return
		}
	}
}

// Stats is a point-in-time snapshot of the pool.
type Stats struct {
	Workers    int   `json:"workers"`
	QueueDepth int   `json:"queue_depth"`
	Queued     int64 `json:"queued"`
	Active     int64 `json:"active"`
	Submitted  int64 `json:"submitted"`
	Rejected   int64 `json:"rejected"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Expired    int64 `json:"expired"`
	// AvgServiceUS is the EWMA of per-job run time in microseconds.
	AvgServiceUS int64 `json:"avg_service_us"`
}

// Stats snapshots the pool's occupancy and lifetime counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Workers:      p.workers,
		QueueDepth:   p.depth,
		Queued:       p.queued.Load(),
		Active:       p.active.Load(),
		Submitted:    p.submitted.Load(),
		Rejected:     p.rejected.Load(),
		Completed:    p.completed.Load(),
		Failed:       p.failed.Load(),
		Expired:      p.expired.Load(),
		AvgServiceUS: p.avgService().Microseconds(),
	}
}
