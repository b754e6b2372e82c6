package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gcao/internal/bench"
)

// The serve-mix traffic mix. A block of blockLen consecutive requests
// always holds the same number of each class; the seed shuffles the
// order inside every block.
const (
	blockLen   = 100
	warmPerBlk = 70 // answered from the cache: one of hotKeys primed keys
	coldPerBlk = 20 // never-seen problem size: compile + place miss, inserts evict
	execPerBlk = 10 // simulate:true; every other one also runs the native backend
	hotKeys    = 32
	serveProcs = 16 // processor count of the warm and cold classes
	execGrid   = 4  // processor count of the exec class
	execN      = 32 // its problem size
	// Cold problem sizes: coldBase + (k·coldStride mod coldRange) for the
	// k-th cold request, which visits every size once before repeating
	// and keeps the running mean of the sizes steady. All are above the
	// hot keys' sizes and small enough that shallow still combines to
	// its Fig. 10(a) count.
	coldBase   = 128
	coldRange  = 4096
	coldStride = 1237
)

type class int

const (
	warm class = iota
	cold
	execSim
	execNative
)

func (c class) String() string { return [...]string{"warm", "cold", "exec-sim", "exec-native"}[c] }

// request is one POST /compile of the stream.
type request struct {
	class class
	key   string // "bench/routine", for the expected message count
	body  []byte
}

// compileBody is the daemon's request schema (cmd/gcaod compileRequest).
type compileBody struct {
	Source   string         `json:"source"`
	Params   map[string]int `json:"params"`
	Procs    int            `json:"procs"`
	Strategy string         `json:"strategy"`
	Estimate bool           `json:"estimate"`
	Simulate bool           `json:"simulate,omitempty"`
	Backend  string         `json:"backend,omitempty"`
}

// stream generates the request sequence. What each block contains does
// not depend on the seed — warm keys follow a Zipf law through a
// low-discrepancy sequence, cold sizes the stride above — so per-op
// traffic means are comparable across seeds; the seed decides the
// order, and with it which entries the daemon's LRU evicts when.
type stream struct {
	mu      sync.Mutex
	rng     *rand.Rand
	reqs    []request // generated so far, whole blocks
	hot     []request // the primed keys, most popular first
	zipf    []float64 // cumulative popularity of the hot keys
	nWarm   int       // warm and cold requests generated so far
	nCold   int
	nExec   int
	cold    *bench.Program
	execs   [2]request
	coldKey string
}

func mustProgram(benchName, routine string) *bench.Program {
	pr, err := bench.ByName(benchName, routine)
	if err != nil {
		panic(err) // the names are constants of this file
	}
	return pr
}

func marshalBody(pr *bench.Program, n, procs int, simulate bool, backend string) []byte {
	body, err := json.Marshal(compileBody{
		Source: pr.Source, Params: pr.Params(n), Procs: procs,
		Strategy: "comb", Estimate: true, Simulate: simulate, Backend: backend,
	})
	if err != nil {
		panic(err) // strings, ints and bools always marshal
	}
	return body
}

func newStream(seed int64) *stream {
	s := &stream{rng: rand.New(rand.NewSource(seed))}
	// Hot keys: the four routines that compile in a few milliseconds
	// (priming is set-up time), eight sizes each from the default up,
	// small enough that every one combines to its Fig. 10(a) count.
	progs := []*bench.Program{
		mustProgram("shallow", "main"), mustProgram("gravity", "main"),
		mustProgram("trimesh", "gauss"), mustProgram("hydflo", "hydro"),
	}
	total := 0.0
	for r := 0; r < hotKeys; r++ {
		pr := progs[r%len(progs)]
		n := pr.DefaultN + pr.DefaultN/8*(r/len(progs))
		s.hot = append(s.hot, request{class: warm, key: pr.Bench + "/" + pr.Routine, body: marshalBody(pr, n, serveProcs, false, "")})
		total += 1 / float64(r+1)
		s.zipf = append(s.zipf, total)
	}
	for r := range s.zipf {
		s.zipf[r] /= total
	}
	s.cold = progs[0]
	s.coldKey = s.cold.Bench + "/" + s.cold.Routine
	s.execs[0] = request{class: execSim, key: s.coldKey, body: marshalBody(s.cold, execN, execGrid, true, "")}
	s.execs[1] = request{class: execNative, key: s.coldKey, body: marshalBody(s.cold, execN, execGrid, true, "native")}
	return s
}

// get returns request i, generating blocks as needed.
func (s *stream) get(i int) request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.reqs) <= i {
		s.block()
	}
	return s.reqs[i]
}

func (s *stream) block() {
	blk := make([]request, 0, blockLen)
	for j := 0; j < warmPerBlk; j++ {
		// Golden-ratio sequence: equidistributed in [0,1), so every run
		// of draws follows the Zipf law closely.
		_, u := math.Modf((float64(s.nWarm) + 0.5) * 0.6180339887498949)
		s.nWarm++
		r := 0
		for r < hotKeys-1 && s.zipf[r] < u {
			r++
		}
		blk = append(blk, s.hot[r])
	}
	for j := 0; j < coldPerBlk; j++ {
		n := coldBase + s.nCold*coldStride%coldRange
		s.nCold++
		blk = append(blk, request{class: cold, key: s.coldKey, body: marshalBody(s.cold, n, serveProcs, false, "")})
	}
	for j := 0; j < execPerBlk; j++ {
		blk = append(blk, s.execs[s.nExec%2])
		s.nExec++
	}
	s.rng.Shuffle(len(blk), func(a, b int) { blk[a], blk[b] = blk[b], blk[a] })
	s.reqs = append(s.reqs, blk...)
}

// ---------------------------------------------------------------------
// the daemon

// buildDaemon compiles cmd/gcaod from the checkout's source into the
// checkout's build directory. It is not set-up time: the toolchain's
// cache decides how long it takes. It is reported as serve.build_s.
func buildDaemon(root string) (bin string, seconds float64, err error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "", 0, err
	}
	bin = filepath.Join(abs, ".bench_build", "gcaod")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gcaod")
	cmd.Dir = abs
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/gcaod: %w", err)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// daemon is a running gcaod.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	http *http.Client
}

// startDaemon starts gcaod on a free loopback port and waits until it
// answers /healthz. The child is killed if this process dies first,
// whatever the cause.
func startDaemon(bin string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-cache-entries", "256", "-flight", "8192", "-log-level", "error")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, http: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4},
	}}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := d.http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("gcaod did not become healthy on %s: %v", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the daemon to shut down, kills it if it does not within
// five seconds, and waits until it has ended.
func (d *daemon) stop() error {
	if d.cmd.ProcessState != nil {
		return nil // already waited for
	}
	d.http.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an error means it has exited; Wait reports how
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill() // as above
		<-done
		return errors.New("gcaod ignored SIGTERM for 5s and was killed")
	}
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.http.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// mallocs reads the daemon's cumulative heap-object count from its
// pprof heap profile header.
func (d *daemon) mallocs() (uint64, error) {
	resp, err := d.http.Get(d.base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			return strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, errors.New("/debug/pprof/heap?debug=1 has no '# Mallocs' line")
}

// ---------------------------------------------------------------------
// the workload

// reply is the part of the daemon's /compile response the checks read.
type reply struct {
	Messages int `json:"messages"`
	Cache    *struct {
		Compile string `json:"compile"`
		Place   string `json:"place"`
	} `json:"cache"`
	Estimate *struct {
		Bytes float64 `json:"bytes"`
	} `json:"estimate"`
	Simulate *struct {
		DynMessages int `json:"dyn_messages"`
	} `json:"simulate"`
	Native *struct {
		Messages int64 `json:"messages"`
	} `json:"native"`
}

// answer is one op's output: the request, the reply and its size.
type answer struct {
	req    request
	status int
	bytes  int
	reply  reply
	ms     float64
	traced bool
}

// serveMix drives a gcaod subprocess with two closed-loop clients
// (callers of a compile daemon wait for their reply).
type serveMix struct {
	d        *daemon
	buildS   float64
	stream   *stream
	expected fig10a
	startNS  int64 // the first measured op may not start before this

	mu       sync.Mutex
	classMS  [4][]float64 // untraced ops
	respKB   []float64
	sumMsgs  float64
	sumBytes float64
	nOK      int
}

func newServeMix(cfg *config) (workload, error) {
	expected, err := loadFig10a(cfg.root)
	if err != nil {
		return nil, err
	}
	w := &serveMix{stream: newStream(cfg.seed), expected: expected, buildS: cfg.buildS}
	if w.d, err = startDaemon(cfg.daemonBin); err != nil {
		return nil, err
	}
	// Priming: every hot key and both exec requests once.
	prime := append(append([]request(nil), w.stream.hot...), w.stream.execs[:]...)
	for _, req := range prime {
		ans, err := w.send(req, nil)
		if err == nil {
			err = w.verify(ans)
		}
		if err != nil {
			w.d.stop()
			return nil, fmt.Errorf("priming: %w", err)
		}
	}
	w.startNS = time.Now().UnixNano()
	return w, nil
}

func (w *serveMix) shape() (int, int) { return 2, blockLen }

func (w *serveMix) close() error { return w.d.stop() }

func (w *serveMix) usage() (float64, uint64, error) {
	cpu, err := procCPU(w.d.cmd.Process.Pid)
	if err != nil {
		return 0, 0, err
	}
	objects, err := w.d.mallocs()
	return cpu, objects, err
}

func (w *serveMix) send(req request, tr *recorder) (*answer, error) {
	t0 := time.Now()
	tr.begin("serve.roundtrip")
	resp, err := w.d.http.Post(w.d.base+"/compile", "application/json", bytes.NewReader(req.body))
	if err != nil {
		tr.end()
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end()
	if err != nil {
		return nil, err
	}
	ans := &answer{req: req, status: resp.StatusCode, bytes: len(data), traced: tr != nil}
	tr.begin("serve.decode")
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(data, &ans.reply)
	}
	tr.end()
	ans.ms = float64(time.Since(t0)) / float64(time.Millisecond)
	return ans, err
}

func (w *serveMix) op(i int, tr *recorder) (any, error) {
	return w.send(w.stream.get(i), tr)
}

func (w *serveMix) check(_ int, out any) error {
	ans := out.(*answer)
	if err := w.verify(ans); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.nOK++
	w.sumMsgs += float64(ans.reply.Messages)
	w.sumBytes += ans.reply.Estimate.Bytes
	if !ans.traced {
		w.classMS[ans.req.class] = append(w.classMS[ans.req.class], ans.ms)
		w.respKB = append(w.respKB, float64(ans.bytes)/1024)
	}
	return nil
}

// verify checks one reply: status 200, the routine's Fig. 10(a) comb
// count, an estimate, and a cache outcome that fits the class.
func (w *serveMix) verify(ans *answer) error {
	r, c := ans.reply, ans.req.class
	if ans.status != http.StatusOK {
		return fmt.Errorf("%s request: status %d", c, ans.status)
	}
	if want := w.expected.combTotal(ans.req.key); r.Messages != want {
		return fmt.Errorf("%s request for %s: %d messages, Fig. 10(a) says %d", c, ans.req.key, r.Messages, want)
	}
	if r.Estimate == nil || r.Estimate.Bytes <= 0 || r.Cache == nil {
		return fmt.Errorf("%s request: reply lacks estimate or cache outcome", c)
	}
	switch {
	case c == cold && (r.Cache.Compile != "miss" || r.Cache.Place != "miss"):
		return fmt.Errorf("cold request answered from the cache (%s/%s)", r.Cache.Compile, r.Cache.Place)
	case r.Cache.Compile != "hit" && r.Cache.Compile != "miss" && r.Cache.Compile != "dedup":
		return fmt.Errorf("%s request: unknown cache outcome %q", c, r.Cache.Compile)
	case c >= execSim && r.Simulate == nil, c == execNative && r.Native == nil:
		return fmt.Errorf("%s request: reply lacks the execution report", c)
	}
	return nil
}

func (w *serveMix) comm() (float64, float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sumMsgs / float64(w.nOK), w.sumBytes / float64(w.nOK)
}

// layers reads the serving layers' own counters over HTTP after the
// loop and adds the per-class latencies the clients saw.
func (w *serveMix) layers(m metrics, _ map[string]*layerFold) error {
	var all []float64
	for _, ms := range w.classMS {
		all = append(all, ms...)
	}
	exec := append(append([]float64(nil), w.classMS[execSim]...), w.classMS[execNative]...)
	m["serve.warm_ms_p50"] = median(w.classMS[warm])
	m["serve.warm_ms_p99"] = percentile(w.classMS[warm], 0.99)
	m["serve.cold_ms_p50"] = median(w.classMS[cold])
	m["serve.cold_ms_p90"] = percentile(w.classMS[cold], 0.9)
	m["serve.exec_ms_p50"] = median(exec)
	m["serve.exec_ms_p90"] = percentile(exec, 0.9)
	m["serve.all_ms_p99"] = percentile(all, 0.99)
	m["serve.resp_kb_p50"] = median(w.respKB)
	m["serve.build_s"] = w.buildS
	m["serve.daemon_rss_mb"] = procPeakRSSMB(w.d.cmd.Process.Pid)

	var stats struct {
		Cache map[string]struct {
			Hits      float64 `json:"hits"`
			Misses    float64 `json:"misses"`
			Evictions float64 `json:"evictions"`
		} `json:"cache"`
		Scheduler struct {
			Rejected float64 `json:"rejected"`
		} `json:"scheduler"`
	}
	if err := w.d.getJSON("/debug/cache", &stats); err != nil {
		return err
	}
	ratio := func(tier string) float64 {
		t := stats.Cache[tier]
		if t.Hits+t.Misses == 0 {
			return 0
		}
		return t.Hits / (t.Hits + t.Misses)
	}
	m["cache.compile_hit_ratio"] = ratio("compile")
	m["cache.place_hit_ratio"] = ratio("place")
	m["cache.evictions"] = stats.Cache["compile"].Evictions + stats.Cache["place"].Evictions
	m["sched.rejected"] = stats.Scheduler.Rejected

	// Phase sums of the measured requests, from the flight recorder.
	var flight struct {
		Recent []struct {
			Route  string             `json:"route"`
			UnixNS int64              `json:"unix_ns"`
			Phases map[string]float64 `json:"phases"` // µs
		} `json:"recent"`
	}
	if err := w.d.getJSON("/debug/flightrecorder?limit=0", &flight); err != nil {
		return err
	}
	sums, n := map[string]float64{}, 0.0
	for _, rec := range flight.Recent {
		if rec.Route != "/compile" || rec.UnixNS < w.startNS {
			continue
		}
		n++
		for phase, us := range rec.Phases {
			sums[phase] += us
		}
	}
	if n == 0 {
		return errors.New("flight recorder retained no measured request")
	}
	m["sched.queue_wait_ms_mean"] = sums["queue.wait"] / n / 1e3
	m["serve.phase_compile_ms_mean"] = sums["compile"] / n / 1e3
	m["serve.phase_place_ms_mean"] = sums["place"] / n / 1e3
	m["serve.phase_simulate_ms_mean"] = (sums["simulate"] + sums["native.exec"]) / n / 1e3
	return nil
}
