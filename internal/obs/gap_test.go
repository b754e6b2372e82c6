package obs

import (
	"strings"
	"testing"
)

func TestOptimalityGapFamilies(t *testing.T) {
	g := NewRegistry()
	g.SetOptimalityGap("shallow", "orig", 1000, 4000)
	g.SetOptimalityGap("shallow", "comb", 1000, 2500)
	g.SetOptimalityGap("gravity", "comb", 500, 2000)
	g.SetOptimalityGap("aligned", "comb", 0, 0) // bound 0: no gap sample

	var b strings.Builder
	if err := g.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if err := CheckPromText([]byte(text)); err != nil {
		t.Fatalf("exposition not scrapeable: %v", err)
	}
	for _, want := range []string{
		"# TYPE gcao_comm_lower_bound_bytes gauge",
		`gcao_comm_lower_bound_bytes{benchmark="shallow"} 1000`,
		`gcao_comm_lower_bound_bytes{benchmark="gravity"} 500`,
		`gcao_comm_lower_bound_bytes{benchmark="aligned"} 0`,
		"# TYPE gcao_optimality_gap_ratio gauge",
		`gcao_optimality_gap_ratio{benchmark="shallow",version="orig"} 4`,
		`gcao_optimality_gap_ratio{benchmark="shallow",version="comb"} 2.5`,
		`gcao_optimality_gap_ratio{benchmark="gravity",version="comb"} 4`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(text, `gap_ratio{benchmark="aligned"`) {
		t.Error("zero-bound benchmark produced a gap sample")
	}

	// Overwrite semantics: a fresh compile replaces the gauge.
	g.SetOptimalityGap("shallow", "comb", 1000, 3000)
	b.Reset()
	if err := g.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `gcao_optimality_gap_ratio{benchmark="shallow",version="comb"} 3`) {
		t.Error("gap gauge did not overwrite")
	}
	var nilReg *Registry
	nilReg.SetOptimalityGap("x", "comb", 1, 1)
}

func TestCheckPromTextTwoLabelFamily(t *testing.T) {
	// The two-label writer must produce samples the validator accepts
	// even with exotic label values.
	g := NewRegistry()
	g.SetOptimalityGap(`we"ird\name`+"\n", "comb", 10, 25)
	var b strings.Builder
	if err := g.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := CheckPromText([]byte(b.String())); err != nil {
		t.Fatalf("escaped labels not scrapeable: %v", err)
	}
}
