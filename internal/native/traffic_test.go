package native_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/native"
)

var updateTraffic = flag.Bool("update", false, "rewrite testdata/traffic.golden from the current engine")

// TestNativeTrafficGolden pins what a native run of every Fig. 10(a)
// routine × version × P ∈ {4, 16} sends — messages, wire and payload
// bytes, tree hops, collectives, barriers and the operations by name — so
// a change to when a collective runs can reorder messages across pairs but
// never change one of them. Each run is a cold engine's, and a slot is
// sized to the message packed into it, so the fabric allocates no more
// bytes than the run sends.
func TestNativeTrafficGolden(t *testing.T) {
	var b strings.Builder
	for _, pr := range bench.Programs() {
		n := 12
		if pr.Bench == "hydflo" {
			n = 10
		}
		for _, v := range versions {
			for _, p := range []int{4, 16} {
				out, err := native.Run(place(t, pr, n, p, v), p)
				if err != nil {
					t.Fatalf("%s/%s/%s/P%d: %v", pr.Bench, pr.Routine, v, p, err)
				}
				st := out.Stats
				if st.AllocBytes > st.WireBytes {
					t.Errorf("%s/%s/%s/P%d: the fabric allocated %d bytes to send %d", pr.Bench, pr.Routine, v, p, st.AllocBytes, st.WireBytes)
				}
				fmt.Fprintf(&b, "%s/%s/%s/P%d messages=%d wire=%d bytes=%d hops=%d collectives=%d barriers=%d",
					pr.Bench, pr.Routine, v, p, st.Messages, st.WireBytes, st.Bytes, st.Hops, st.Collectives, st.Barriers)
				ops := make([]string, 0, len(st.Ops))
				for name, k := range st.Ops {
					ops = append(ops, fmt.Sprintf(" %s=%d", name, k))
				}
				slices.Sort(ops)
				b.WriteString(strings.Join(ops, "") + "\n")
			}
		}
	}
	path := filepath.Join("testdata", "traffic.golden")
	if *updateTraffic {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("native traffic differs from %s (-update rewrites it, only on purpose):\n%s", path, got)
	}
}
