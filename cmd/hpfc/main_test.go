package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// stdout runs one subcommand — the compiler driver when name is "" — with
// the given arguments and returns what it printed.
func stdout(t *testing.T, name string, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	run, fs := compile, flag.NewFlagSet("hpfc", flag.ContinueOnError)
	if name != "" {
		run, fs = subcommands[name], flag.NewFlagSet("hpfc "+name, flag.ContinueOnError)
	}
	run(fs, args)
	os.Stdout = saved
	w.Close()
	return <-out
}

// TestGoldenStdout pins what the artefact subcommands print, byte for
// byte: the Fig. 10(a) table, one Fig. 10 chart, one Fig. 5 machine, two
// simulator profiles (heatmap, superstep timeline, time split and blame
// table) and the compiler driver's report with its -explain decision
// log, which reaches the log only through the recorder the driver hands
// Place. Regenerate with -update, only when the change is intended.
func TestGoldenStdout(t *testing.T) {
	for _, tc := range []struct {
		golden, name string
		args         []string
	}{
		{"fig10a.golden", "fig10a", nil},
		{"charts-b.golden", "charts", []string{"-fig", "b"}},
		{"fig5-sp2.golden", "fig5", []string{"-machine", "sp2"}},
		{"profile-shallow.golden", "profile", []string{"-bench", "shallow", "-procs", "4", "-version", "comb", "-blame", "5"}},
		{"profile-gravity.golden", "profile", []string{"-bench", "gravity", "-n", "12", "-procs", "16", "-version", "comb", "-blame", "5"}},
		{"explain-shallow.golden", "", []string{"-explain", "-version", "comb", "shallow"}},
	} {
		t.Run(strings.TrimSuffix(tc.golden, ".golden"), func(t *testing.T) {
			got := stdout(t, tc.name, tc.args...)
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("hpfc %s %s printed\n%s\nwant (%s)\n%s", tc.name, strings.Join(tc.args, " "), got, path, want)
			}
		})
	}
}

// TestFig10aHydfloFlux holds the row of hpfc fig10a for hydflo/flux: 52,
// 30 and 6 call sites under orig, nored and comb, as published.
func TestFig10aHydfloFlux(t *testing.T) {
	row := regexp.MustCompile(`(?m)^hydflo +flux +NNC +\| +52 +30 +6 \| +52 +30 +6$`)
	if out := stdout(t, "fig10a"); !row.MatchString(out) {
		t.Errorf("hydflo/flux is not 52/30/6 call sites:\n%s", out)
	}
}

// TestVerifyNative: every benchmark's functional instance runs natively
// bit-identical to the simulator, one line each.
func TestVerifyNative(t *testing.T) {
	out := stdout(t, "verify", "-backend", "native")
	if n := strings.Count(out, "native ok, bit-identical to simulator"); n != 6 {
		t.Errorf("%d of 6 benchmarks verified natively:\n%s", n, out)
	}
}
