package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSubmitRunsTask(t *testing.T) {
	p := New(2, 4)
	defer p.Close()
	v, err := p.Submit(context.Background(), func(context.Context) (any, error) {
		return 42, nil
	})
	if err != nil || v.(int) != 42 {
		t.Fatalf("Submit = %v, %v", v, err)
	}
	boom := errors.New("boom")
	_, err = p.Submit(context.Background(), func(context.Context) (any, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Submit error = %v", err)
	}
	st := p.Stats()
	if st.Submitted != 2 || st.Completed != 1 || st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestQueueFull pins the admission contract: with one worker occupied
// and the depth-1 queue holding one job, the next submission is
// rejected immediately with ErrQueueFull.
func TestQueueFull(t *testing.T) {
	p := New(1, 1)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupies the worker
		defer wg.Done()
		p.Submit(context.Background(), func(context.Context) (any, error) {
			close(started)
			<-block
			return nil, nil
		})
	}()
	<-started
	wg.Add(1)
	go func() { // sits in the queue
		defer wg.Done()
		p.Submit(context.Background(), func(context.Context) (any, error) { return nil, nil })
	}()
	// Wait until the queue slot is taken.
	for i := 0; p.Stats().Queued != 1; i++ {
		if i > 1000 {
			t.Fatal("queued job never registered")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := p.Submit(context.Background(), func(context.Context) (any, error) { return nil, nil })
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow Submit = %v, want ErrQueueFull", err)
	}
	if p.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d", p.Stats().Rejected)
	}
	close(block)
	wg.Wait()
}

// TestExpiredJobSkipped: a job whose deadline lapses while queued is
// never run.
func TestExpiredJobSkipped(t *testing.T) {
	p := New(1, 2)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	go p.Submit(context.Background(), func(context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired when it reaches a worker
	ran := make(chan struct{}, 1)
	_, err := p.Submit(ctx, func(context.Context) (any, error) {
		ran <- struct{}{}
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit = %v, want context.Canceled", err)
	}
	close(block)
	// Give the worker a chance to (wrongly) run the canceled job.
	for i := 0; p.Stats().Expired == 0; i++ {
		if i > 1000 {
			t.Fatal("canceled job never drained")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-ran:
		t.Fatal("expired job was executed")
	default:
	}
}

func TestSubmitDeadlineWhileRunning(t *testing.T) {
	p := New(1, 1)
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	_, err := p.Submit(ctx, func(context.Context) (any, error) {
		<-done
		return nil, nil
	})
	close(done)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit = %v, want DeadlineExceeded", err)
	}
}

// submitAll submits every task on its own goroutine, as concurrent
// requests would, and returns each task's result in task order.
func submitAll(p *Pool, tasks []Task) ([]any, []error) {
	vals, errs := make([]any, len(tasks)), make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, fn := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i], errs[i] = p.Submit(context.Background(), fn)
		}()
	}
	wg.Wait()
	return vals, errs
}

// TestSubmitBoundedWorkers: more concurrent submissions than workers
// all complete, and concurrency never exceeds the worker count.
func TestSubmitBoundedWorkers(t *testing.T) {
	const workers = 2
	p := New(workers, 16)
	defer p.Close()
	var cur, peak atomic.Int64
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = func(context.Context) (any, error) {
			n := cur.Add(1)
			for {
				pk := peak.Load()
				if n <= pk || peak.CompareAndSwap(pk, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return nil, nil
		}
	}
	_, errs := submitAll(p, tasks)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("task %d failed: %v", i, err)
		}
	}
	if pk := peak.Load(); pk > workers {
		t.Fatalf("observed %d concurrent tasks, pool has %d workers", pk, workers)
	}
	if st := p.Stats(); st.Completed != 8 {
		t.Fatalf("completed = %d", st.Completed)
	}
}

func TestCloseFailsQueuedJobs(t *testing.T) {
	p := New(1, 4)
	block := make(chan struct{})
	started := make(chan struct{})
	go p.Submit(context.Background(), func(context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := p.Submit(context.Background(), func(context.Context) (any, error) { return nil, nil })
			errs <- err
		}()
	}
	for i := 0; p.Stats().Queued != 2; i++ {
		if i > 1000 {
			t.Fatal("jobs never queued")
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	p.Close()
	for i := 0; i < 2; i++ {
		// Each queued job either ran before shutdown or was failed with
		// ErrClosed; neither may hang.
		if err := <-errs; err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("queued job err = %v", err)
		}
	}
	if _, err := p.Submit(context.Background(), func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Submit = %v", err)
	}
}

// TestPoolHammer drives many concurrent submissions through a small
// pool; run with -race. Rejections are allowed, hangs and lost results
// are not.
func TestPoolHammer(t *testing.T) {
	p := New(4, 8)
	defer p.Close()
	var ok, rejected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v, err := p.Submit(context.Background(), func(context.Context) (any, error) {
					return fmt.Sprintf("%d-%d", g, i), nil
				})
				switch {
				case errors.Is(err, ErrQueueFull):
					rejected.Add(1)
				case err != nil:
					t.Errorf("Submit: %v", err)
				case v.(string) != fmt.Sprintf("%d-%d", g, i):
					t.Errorf("wrong result %v", v)
				default:
					ok.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if ok.Load() != st.Completed || rejected.Load() != st.Rejected {
		t.Fatalf("stats mismatch: ok=%d completed=%d rejected=%d/%d",
			ok.Load(), st.Completed, rejected.Load(), st.Rejected)
	}
	if ok.Load()+rejected.Load() != 16*50 {
		t.Fatalf("lost submissions: %d + %d != 800", ok.Load(), rejected.Load())
	}
}

// TestQueueWaitObserver pins the queue-wait ledger: every dequeued
// job reports its admission→dequeue wait, including a job held behind
// a busy worker.
func TestQueueWaitObserver(t *testing.T) {
	p := New(1, 2)
	defer p.Close()
	var mu sync.Mutex
	var waits []time.Duration
	p.SetQueueWaitObserver(func(d time.Duration) {
		mu.Lock()
		waits = append(waits, d)
		mu.Unlock()
	})
	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Submit(context.Background(), func(context.Context) (any, error) {
			close(started)
			<-block
			return nil, nil
		})
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Submit(context.Background(), func(context.Context) (any, error) { return nil, nil })
	}()
	for i := 0; p.Stats().Queued != 1; i++ {
		if i > 5000 {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the queued job accrue wait
	close(block)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(waits) != 2 {
		t.Fatalf("observed %d waits, want 2", len(waits))
	}
	// The second job waited behind the blocked worker for >= 20ms.
	var max time.Duration
	for _, d := range waits {
		if d < 0 {
			t.Fatalf("negative wait %v", d)
		}
		if d > max {
			max = d
		}
	}
	if max < 20*time.Millisecond {
		t.Fatalf("max queue wait %v, want >= 20ms", max)
	}
}

// TestAvgServiceEWMA pins the service-time estimate used for derived
// Retry-After: it converges toward the observed job duration and
// EstimateDrain scales with the backlog.
func TestAvgServiceEWMA(t *testing.T) {
	p := New(1, 8)
	defer p.Close()
	if p.avgService() != 0 || p.EstimateDrain() != 0 {
		t.Fatal("fresh pool reports a service time")
	}
	for i := 0; i < 8; i++ {
		p.Submit(context.Background(), func(context.Context) (any, error) {
			time.Sleep(5 * time.Millisecond)
			return nil, nil
		})
	}
	avg := p.avgService()
	if avg < 4*time.Millisecond || avg > 100*time.Millisecond {
		t.Fatalf("avg service %v, want around 5ms", avg)
	}
	if p.Stats().AvgServiceUS < 4000 {
		t.Fatalf("stats avg_service_us = %d", p.Stats().AvgServiceUS)
	}
	// With an idle pool the drain estimate is zero; it grows with the
	// backlog (checked synthetically to stay deterministic).
	if got := p.EstimateDrain(); got != 0 {
		t.Fatalf("idle drain estimate = %v", got)
	}
	p.queued.Store(6)
	want := time.Duration(6 * p.avgServiceNS.Load())
	if got := p.EstimateDrain(); got != want {
		t.Fatalf("drain estimate = %v, want %v", got, want)
	}
	p.queued.Store(0)
}

// TestPanickingTaskIsContained: a task that panics on a worker fails
// alone — its caller gets a *PanicError with the panic text and the
// stack, it counts as failed, active returns to zero, and the same
// (single) worker goes on to serve every other job, alone and among
// healthy jobs submitted concurrently.
func TestPanickingTaskIsContained(t *testing.T) {
	p := New(1, 8)
	defer p.Close()
	ok := func(context.Context) (any, error) { return "ok", nil }
	boom := func(context.Context) (any, error) { panic("section: rank mismatch") }

	_, err := p.Submit(context.Background(), boom)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Submit of a panicking task = %v, want a *PanicError", err)
	}
	if pe.Value != "section: rank mismatch" || !strings.Contains(err.Error(), pe.Value) {
		t.Errorf("panic text lost: value %q, error %q", pe.Value, err)
	}
	if !strings.Contains(string(pe.Stack), "TestPanickingTaskIsContained") {
		t.Errorf("stack does not reach the panicking task:\n%s", pe.Stack)
	}
	if v, err := p.Submit(context.Background(), ok); err != nil || v != "ok" {
		t.Fatalf("Submit after a panic = %v, %v: the worker did not survive", v, err)
	}

	vals, errs := submitAll(p, []Task{ok, boom, ok, boom, ok})
	for i, err := range errs {
		if panics := i%2 == 1; panics != errors.As(err, &pe) || (!panics && vals[i] != "ok") {
			t.Errorf("job %d = %v, %v", i, vals[i], err)
		}
	}
	st := p.Stats()
	if st.Submitted != 7 || st.Completed != 4 || st.Failed != 3 || st.Active != 0 || st.Queued != 0 {
		t.Fatalf("stats after contained panics = %+v", st)
	}
}
