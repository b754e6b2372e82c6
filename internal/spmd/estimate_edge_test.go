package spmd

import (
	"math"
	"testing"

	"gcao/internal/core"
	"gcao/internal/machine"
)

// localSrc has only owner-local accesses: every reference is aligned
// with its LHS, so the analysis finds no communication entries.
const localSrc = `
routine lo(n)
real a(n, n)
!hpf$ distribute (block, block) :: a
do i = 1, n
do j = 1, n
a(i, j) = i + j
enddo
enddo
do i = 1, n
do j = 1, n
a(i, j) = a(i, j) * 2
enddo
enddo
end
`

// TestEstimateNoCommunication: a routine without communication entries
// must cost zero network time but nonzero CPU, under every version.
func TestEstimateNoCommunication(t *testing.T) {
	a := compile(t, localSrc, map[string]int{"n": 16}, 4)
	if got := len(a.CommEntries()); got != 0 {
		t.Fatalf("aligned routine has %d comm entries, want 0", got)
	}
	for _, v := range []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine} {
		res := placed(t, a, v)
		c, err := Estimate(res, machine.SP2())
		if err != nil {
			t.Fatal(err)
		}
		if c.Net != 0 || c.Messages != 0 || c.Bytes != 0 {
			t.Errorf("%v: comm-free routine costed net=%v msgs=%v bytes=%v, want all zero", v, c.Net, c.Messages, c.Bytes)
		}
		if c.CPU <= 0 {
			t.Errorf("%v: CPU = %v, want > 0", v, c.CPU)
		}
	}
}

// TestEstimateSingleProcessor: on one processor every section is
// local, so the estimate carries no payload bytes (placement still
// emits the exchange skeleton, so a fixed per-exchange overhead
// remains) and the functional run sends nothing at all.
func TestEstimateSingleProcessor(t *testing.T) {
	a := compile(t, stencilSrc, map[string]int{"n": 8, "steps": 1}, 1)
	res := placed(t, a, core.VersionCombine)
	c, err := Estimate(res, machine.SP2())
	if err != nil {
		t.Fatal(err)
	}
	if c.Bytes != 0 {
		t.Errorf("P=1 estimate moves %v payload bytes, want 0", c.Bytes)
	}
	if c.Net < 0 || math.IsNaN(c.Net) {
		t.Errorf("P=1 net = %v, want finite and non-negative", c.Net)
	}
	if c.CPU <= 0 {
		t.Errorf("P=1 CPU = %v, want > 0", c.CPU)
	}
	run, err := RunParallel(res, machine.SP2(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.Ledger.DynMessages != 0 || run.Ledger.BytesMoved != 0 {
		t.Errorf("P=1 run moved %d messages / %d bytes, want none",
			run.Ledger.DynMessages, run.Ledger.BytesMoved)
	}
}

// TestEstimateComponentsNonNegative sweeps versions × machines over a
// communicating program: every cost component must be finite and
// non-negative, and Total must be their sum.
func TestEstimateComponentsNonNegative(t *testing.T) {
	a := compile(t, stencilSrc, map[string]int{"n": 16, "steps": 2}, 4)
	for _, m := range []machine.Machine{machine.SP2(), machine.NOW()} {
		for _, v := range []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine} {
			c, err := Estimate(placed(t, a, v), m)
			if err != nil {
				t.Fatal(err)
			}
			for name, x := range map[string]float64{"cpu": c.CPU, "net": c.Net, "messages": c.Messages, "bytes": c.Bytes} {
				if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
					t.Errorf("%s/%v: %s = %v", m.Name, v, name, x)
				}
			}
			if got := c.Total(); math.Abs(got-(c.CPU+c.Net)) > 1e-15 {
				t.Errorf("%s/%v: Total() = %v, want CPU+Net = %v", m.Name, v, got, c.CPU+c.Net)
			}
		}
	}
}

// TestEstimateVersionsBarsConsistent: the normalized bars must be the
// raw costs divided by the orig total — segment by segment, not just in
// aggregate — and orig must normalize to exactly 1.
func TestEstimateVersionsBarsConsistent(t *testing.T) {
	a := compile(t, stencilSrc, map[string]int{"n": 32, "steps": 2}, 4)
	bars, err := EstimateVersions(a, machine.SP2())
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 3 {
		t.Fatalf("bars = %d, want 3", len(bars))
	}
	base := bars[0].Raw.Total()
	if base <= 0 {
		t.Fatalf("orig raw total = %v, want > 0", base)
	}
	if tot := bars[0].CPU + bars[0].Net; math.Abs(tot-1) > 1e-12 {
		t.Errorf("orig bar total = %v, want 1", tot)
	}
	for _, b := range bars {
		if math.Abs(b.CPU-b.Raw.CPU/base) > 1e-12 || math.Abs(b.Net-b.Raw.Net/base) > 1e-12 {
			t.Errorf("%v: bar (%v, %v) inconsistent with raw (%v, %v) / base %v",
				b.Version, b.CPU, b.Net, b.Raw.CPU, b.Raw.Net, base)
		}
		if b.CPU < 0 || b.Net < 0 {
			t.Errorf("%v: negative bar segment (%v, %v)", b.Version, b.CPU, b.Net)
		}
	}
}

// TestEstimateVersionsNoCommDegenerate: with zero communication the
// three bars are identical and still normalized against a positive
// base (the CPU-only total).
func TestEstimateVersionsNoCommDegenerate(t *testing.T) {
	a := compile(t, localSrc, map[string]int{"n": 16}, 4)
	bars, err := EstimateVersions(a, machine.NOW())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bars {
		if b.Net != 0 {
			t.Errorf("%v: net segment = %v, want 0", b.Version, b.Net)
		}
		if math.Abs(b.CPU-1) > 1e-12 {
			t.Errorf("%v: CPU segment = %v, want 1 (same work as orig)", b.Version, b.CPU)
		}
	}
}
