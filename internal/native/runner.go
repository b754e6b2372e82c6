package native

import (
	"slices"
	"sync"
	"time"
)

// Runners: the goroutines processors 1…P−1 of a run execute on. A
// runner runs the processor it is started with, parks, runs each
// processor handed to it, and exits once it has been parked for
// runnerIdle. It holds a processor only while that processor runs.
//
// The runners are process-wide, not per engine: engines live in
// sync.Pools that drop them silently, and a goroutine an engine owned
// would keep its engine alive. There are at most runnerCap of them (the
// oversubscription clamp); past it a processor runs on a goroutine of its
// own, which exits with it. A runner parks itself before it marks its
// processor done, so when Run returns every runner of the run is parked
// and the next run of the same size takes them all: a warm run starts no
// goroutine. The parked runners form a stack, so the ones a burst of
// concurrent runs added are the first to go idle and exit.

// runnerIdle is how long a parked runner waits for its next processor
// before it exits, so an idle process returns to its base goroutine
// count a second after its last native run.
const runnerIdle = time.Second

var (
	// runnerMu guards parked and runners: the parked runners, most
	// recently parked last, and how many runners exist, parked or not.
	runnerMu  sync.Mutex
	parked    []*runner
	runners   int
	runnerCap = maxProcs
)

// runner is one parked-or-running runner. next carries the processor a
// dispatch hands it, or nil when its idle time has passed, with room for
// one so that neither sender waits; idle is its timer, reset each time it
// parks.
type runner struct {
	next chan *proc
	idle *time.Timer
}

// dispatch runs processor pc on the runner parked last, else on a new
// runner while fewer than runnerCap exist, else on a goroutine of its
// own. The hand-off is where a run's cancellation belongs: a watcher
// calls the engine's fail, and a processor of a failed run finds the flag
// at its first channel operation, on whichever goroutine it runs.
func dispatch(pc *proc) {
	runnerMu.Lock()
	if n := len(parked); n > 0 {
		r := parked[n-1]
		parked = parked[:n-1]
		runnerMu.Unlock()
		r.next <- pc
		return
	}
	if runners < runnerCap() {
		runners++
		runnerMu.Unlock()
		r := &runner{next: make(chan *proc, 1)}
		r.idle = time.AfterFunc(runnerIdle, r.expire)
		r.idle.Stop() // armed when r parks
		go r.run(pc)
		return
	}
	runnerMu.Unlock()
	go func() {
		pc.main()
		pc.eng.wg.Done()
	}()
}

// run is the runner's goroutine: run pc, park, mark pc done, and wait
// for the next processor; a nil one means the runner has left.
func (r *runner) run(pc *proc) {
	for pc != nil {
		pc.main()
		eng := pc.eng
		runnerMu.Lock()
		parked = append(parked, r)
		r.idle.Reset(runnerIdle)
		runnerMu.Unlock()
		eng.wg.Done()
		pc = <-r.next
		r.idle.Stop()
	}
}

// expire runs runnerIdle after a runner parked: if no dispatch has taken
// it since, it leaves the stack and the count, and its goroutine ends.
// A tick that comes late, after the runner has parked again, ends it
// early, which costs a later run one goroutine start.
func (r *runner) expire() {
	runnerMu.Lock()
	i := slices.Index(parked, r)
	if i >= 0 {
		parked = slices.Delete(parked, i, i+1)
		runners--
	}
	runnerMu.Unlock()
	if i >= 0 {
		r.next <- nil // off the stack, no dispatch sends to r again
	}
}

// Runners is how many runners exist, parked or running a processor. A
// goroutine-leak check counts NumGoroutine() − Runners(): parked runners
// are kept on purpose, and they idle out while a check waits.
func Runners() int {
	runnerMu.Lock()
	defer runnerMu.Unlock()
	return runners
}
