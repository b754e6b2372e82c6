package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// sweepLine is one line of a -sweep file: one untraced run.
type sweepLine struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Result   *result `json:"result"`
}

// sweep runs every workload of BENCHMARK.json on seeds from … from+runs-1
// with tracing off, each in a fresh process, and appends one line per
// run to out. It is the one command that runs every workload, checks every
// output and prints every end-to-end metric; two sweeps are the input
// of -compare.
func sweep(cfg *config, out string, from, runs int) error {
	sp, err := loadSpec(cfg.root)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.OpenFile(out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	for seed := int64(from); seed < int64(from+runs); seed++ {
		for _, name := range sp.workloadNames() {
			cmd := exec.Command(self, "-root", cfg.root, "-workload", name,
				"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: last line is not a result: %w", name, seed, err)
			}
			line, err := json.Marshal(sweepLine{Workload: name, Seed: seed, Result: &res})
			if err != nil {
				return err
			}
			if _, err := f.Write(append(line, '\n')); err != nil {
				return err
			}
			fmt.Fprintf(cfg.log, "%-15s seed %-3d correct=%v attempted=%d failed=%d", name, seed, res.Correct, res.Attempted, res.Failed)
			for _, ms := range sp.EndToEnd {
				fmt.Fprintf(cfg.log, "  %s=%.6g%s", ms.Name, res.Metrics[ms.Name].Value, ms.Unit)
			}
			fmt.Fprintln(cfg.log)
		}
	}
	return f.Close()
}

// side is one sweep file's runs of one workload.
type side struct {
	values            map[string][]float64 // metric → one value per run
	attempted, failed int
}

func loadSweep(path string) (map[string]*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]*side{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var l sweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil || l.Result == nil {
			return nil, fmt.Errorf("%s:%d: not a sweep line: %v", path, n, err)
		}
		s := out[l.Workload]
		if s == nil {
			s = &side{values: map[string][]float64{}}
			out[l.Workload] = s
		}
		s.attempted += l.Result.Attempted
		s.failed += l.Result.Failed
		for name, mv := range l.Result.Metrics {
			s.values[name] = append(s.values[name], mv.Value)
		}
	}
	return out, sc.Err()
}

// spread is the interquartile range as a share of the median, the
// steadiness measure the benchmark's bounds are judged against.
func spread(xs []float64) float64 {
	if len(xs) < 2 || median(xs) == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// verdict judges one metric of one workload. worse is by how much of
// A's median B's median is worse, in the metric's own direction.
//
//	regressed   worse than the bound
//	unresolved  within the bound, but a side's spread is wider than the
//	            bound and B's runs are not all better than all of A's
//	ok          otherwise
func verdict(a, b []float64, ms metricSpec) (worse float64, v string) {
	ma, mb := median(a), median(b)
	lower := ms.Better == "lower"
	if ma != 0 {
		worse = (mb - ma) / ma
		if !lower {
			worse = -worse
		}
	}
	if worse > ms.Bound {
		return worse, "regressed"
	}
	if spread(a) > ms.Bound || spread(b) > ms.Bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if (lower && x >= y) || (!lower && x <= y) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return worse, "unresolved"
		}
	}
	return worse, "ok"
}

// compareFiles prints one row per workload × end-to-end metric of two
// sweeps — A is the base of every ratio — and reports whether any row
// regressed or B failed a larger share of its ops than A.
func compareFiles(root, pathA, pathB string, w io.Writer) (regressed bool, err error) {
	sp, err := loadSpec(root)
	if err != nil {
		return false, err
	}
	a, err := loadSweep(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSweep(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %9s %7s %7s %7s  %s\n",
		"workload", "metric", "A median", "B median", "B/A", "spreadA", "spreadB", "bound", "verdict")
	for _, name := range sp.workloadNames() {
		sa, sb := a[name], b[name]
		if sa == nil || sb == nil {
			return false, fmt.Errorf("workload %s is missing from one of the files", name)
		}
		for _, ms := range sp.EndToEnd {
			va, vb := sa.values[ms.Name], sb.values[ms.Name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s: metric %s is missing from one of the files", name, ms.Name)
			}
			_, v := verdict(va, vb, ms)
			if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "%-15s %-18s %14.6g %14.6g %9.4f %6.1f%% %6.1f%% %6.1f%%  %s\n",
				name, ms.Name+" ("+ms.Unit+")", median(va), median(vb), median(vb)/median(va),
				100*spread(va), 100*spread(vb), 100*ms.Bound, v)
		}
		fa := float64(sa.failed) / float64(sa.attempted)
		fb := float64(sb.failed) / float64(sb.attempted)
		v := "ok"
		if fb > fa {
			v, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-15s %-18s %14.6g %14.6g %9s %7s %7s %7s  %s\n", name, "failed ÷ attempted", fa, fb, "", "", "", "", v)
	}
	return regressed, nil
}
