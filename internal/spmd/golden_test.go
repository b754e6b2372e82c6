package spmd_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/obs"
	"gcao/internal/spmd"
)

var update = flag.Bool("update", false, "rewrite testdata/ledger_golden.json from this revision's runs")

const goldenPath = "testdata/ledger_golden.json"

// ledgerGolden is what one simulated run charged and computed: the
// ledger's counters, a hash over the bits of every per-processor CPU and
// Net clock, and a hash over the final state.
type ledgerGolden struct {
	Messages int    `json:"messages"`
	Bytes    int    `json:"bytes"`
	Barriers int    `json:"barriers"`
	Clocks   string `json:"clocks_fnv64"`
	State    string `json:"state_fnv64"`
}

func hashFloats(h io.Writer, vs []float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func goldenOf(run *spmd.RunResult) ledgerGolden {
	clocks := fnv.New64a()
	hashFloats(clocks, run.Ledger.CPU)
	hashFloats(clocks, run.Ledger.Net)
	return ledgerGolden{
		Messages: run.Ledger.DynMessages,
		Bytes:    run.Ledger.BytesMoved,
		Barriers: run.Ledger.Barriers,
		Clocks:   fmt.Sprintf("%016x", clocks.Sum64()),
		State:    fmt.Sprintf("%016x", stateHash(run)),
	}
}

// stateHash hashes the canonical arrays (in declaration order) and the
// scalars (in name order) of a finished run.
func stateHash(run *spmd.RunResult) uint64 {
	h := fnv.New64a()
	for _, name := range run.Mem.Unit.ArrayNames {
		h.Write([]byte(name))
		hashFloats(h, run.Mem.Canonical(name))
	}
	names := make([]string, 0, len(run.Scalars))
	for name := range run.Scalars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		hashFloats(h, []float64{run.Scalars[name]})
	}
	return h.Sum64()
}

var versions = []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine}

// benchSize is the problem size the execution matrices run the paper's
// routines at.
func benchSize(pr *bench.Program) int {
	if pr.Bench == "hydflo" {
		return 10
	}
	return 12
}

func placeBench(t *testing.T, pr *bench.Program, procs int, v core.Version) *core.Result {
	t.Helper()
	a, err := pr.Compile(benchSize(pr), procs)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := a.Place(core.Options{Version: v})
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	return res
}

// TestLedgerGolden pins the cost model: for the six Fig. 10(a) routines
// under every version at P = 4 and 16, the simulator's message, byte and
// barrier counts, the bits of every processor's CPU and Net clock and
// the final state equal what the checked-in file records, at every shard
// count. The file is the record of what an earlier revision charged: a
// change to flop counts, reduction shares, branch or collective charges
// shows up here and nowhere else. Regenerate with -update only when the
// cost model is meant to change.
func TestLedgerGolden(t *testing.T) {
	want := map[string]ledgerGolden{}
	if !*update {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]ledgerGolden{}
	m := machine.SP2()
	for _, pr := range bench.Programs() {
		for _, v := range versions {
			for _, procs := range []int{4, 16} {
				key := fmt.Sprintf("%s/%s/%s/P%d", pr.Bench, pr.Routine, v, procs)
				res := placeBench(t, pr, procs, v)
				for _, workers := range []int{1, 3, goruntime.GOMAXPROCS(0)} {
					run, err := spmd.RunParallelObs(res, m, procs, workers, nil)
					if err != nil {
						t.Fatalf("%s j=%d: %v", key, workers, err)
					}
					g := goldenOf(run)
					if *update {
						if prev, ok := got[key]; ok && prev != g {
							t.Fatalf("%s: j=%d gives %+v, j=1 gave %+v", key, workers, g, prev)
						}
						got[key] = g
					} else if g != want[key] {
						t.Errorf("%s j=%d:\n got %+v\nwant %+v", key, workers, g, want[key])
					}
				}
			}
		}
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSuperstepInvariants pins what one receiver-order walk over an
// exchange's deliveries can account, on the six Fig. 10(a) routines under
// every version, P = 4 and 16, one and three shards: a shift sends each
// processor at most one strip and delivers it at most one, so its
// h-relation in equals its h-relation out; the shift steps' bytes and
// messages are the pair matrix's; and all steps' bytes are the ledger's.
func TestSuperstepInvariants(t *testing.T) {
	m := machine.SP2()
	for _, pr := range bench.Programs() {
		for _, v := range versions {
			for _, procs := range []int{4, 16} {
				res := placeBench(t, pr, procs, v)
				for _, workers := range []int{1, 3} {
					key := fmt.Sprintf("%s/%s/%s/P%d/j%d", pr.Bench, pr.Routine, v, procs, workers)
					rec := obs.New()
					run, err := spmd.RunParallelObs(res, m, procs, workers, rec)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					var shiftBytes, shiftMsgs, allBytes, pairBytes, pairMsgs int64
					for _, s := range rec.Attribution().Steps {
						allBytes += s.Bytes
						if s.Kind != core.KindShift.String() {
							continue
						}
						if s.HIn != s.HOut {
							t.Errorf("%s: step %d h_in %d != h_out %d", key, s.Index, s.HIn, s.HOut)
						}
						shiftBytes += s.Bytes
						shiftMsgs += int64(s.Messages)
					}
					prof := rec.CommProfile()
					for src := range prof.PairBytes {
						for dst := range prof.PairBytes[src] {
							pairBytes += prof.PairBytes[src][dst]
							pairMsgs += prof.PairMsgs[src][dst]
						}
					}
					if shiftBytes != pairBytes || shiftMsgs != pairMsgs {
						t.Errorf("%s: shift steps %d bytes %d msgs, pair matrix %d bytes %d msgs", key, shiftBytes, shiftMsgs, pairBytes, pairMsgs)
					}
					if allBytes != int64(run.Ledger.BytesMoved) {
						t.Errorf("%s: steps sum to %d bytes, ledger moved %d", key, allBytes, run.Ledger.BytesMoved)
					}
				}
			}
		}
	}
}
