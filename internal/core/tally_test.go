package core

import "testing"

// TestNilTallyCostsNothing: with no recorder attached Place hands the
// placement a nil tally, and counting on it neither allocates nor
// builds a counter name.
func TestNilTallyCostsNothing(t *testing.T) {
	var none tally
	allocs := testing.AllocsPerRun(100, func() {
		none.add("greedy.iterations", 1)
		none.reject(reasonHull)
	})
	if allocs != 0 {
		t.Errorf("counting on a nil tally allocates %.0f times", allocs)
	}
	if none != nil {
		t.Error("counting on a nil tally made it non-nil")
	}
}
