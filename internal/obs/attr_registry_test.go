package obs

import (
	"bytes"
	"strings"
	"testing"

	"gcao/internal/obs/attr"
)

// TestRegistryAttributionFamilies: absorbing a recorder that carries a
// cost-attribution record must surface the per-superstep h-relation
// histogram, labeled by version alone, in a parseable, deterministic
// exposition. The per-site bytes stay in the request's own record.
func TestRegistryAttributionFamilies(t *testing.T) {
	rec := New()
	rec.SetAttribution(&attr.Run{
		Version: "comb",
		Procs:   4,
		Steps: []attr.Step{
			{Index: 0, Site: "comb/g0@B1.top/NNC", Kind: "NNC", Arrays: []string{"a"},
				Messages: 4, Bytes: 400, HIn: 100, HOut: 120},
			{Index: 1, Site: "comb/g1@B2.top/SUM", Kind: "SUM", Arrays: []string{"s"},
				Messages: 3, Bytes: 40, HIn: 40, HOut: 40},
			{Index: 2, Site: "comb/g0@B1.top/NNC", Kind: "NNC", Arrays: []string{"a"},
				Messages: 4, Bytes: 400, HIn: 100, HOut: 120},
		},
	})

	reg := NewRegistry()
	reg.Absorb(rec, "ok")

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := CheckPromText(buf.Bytes()); err != nil {
		t.Fatalf("exposition not parseable: %v\n%s", err, text)
	}
	for _, want := range []string{
		`# TYPE gcao_superstep_hrelation_bytes histogram`,
		// Each step observes max(HIn, HOut); 120 and 40 both land in
		// the first BytesBuckets bound (le=256).
		`gcao_superstep_hrelation_bytes_bucket{version="comb",le="256"} 3`,
		`gcao_superstep_hrelation_bytes_count{version="comb"} 3`,
		`gcao_superstep_hrelation_bytes_sum{version="comb"} 280`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	// Determinism: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := reg.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("exposition not deterministic")
	}
	// A recorder without attribution leaves the family absent but the
	// exposition still valid.
	reg2 := NewRegistry()
	reg2.Absorb(New(), "ok")
	var buf3 bytes.Buffer
	if err := reg2.WritePrometheus(&buf3); err != nil {
		t.Fatal(err)
	}
	if err := CheckPromText(buf3.Bytes()); err != nil {
		t.Fatalf("attribution-free exposition not parseable: %v", err)
	}
	if strings.Contains(buf3.String(), "gcao_superstep_hrelation_bytes") {
		t.Fatal("h-relation histogram rendered without any attribution")
	}
}
