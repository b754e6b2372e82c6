package machine_test

import (
	"testing"
	"testing/quick"

	"gcao/internal/core"
	"gcao/internal/machine"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"SP2", "sp2", "NOW", "now"} {
		if _, err := machine.ByName(name); err != nil {
			t.Errorf("machine.ByName(%q): %v", name, err)
		}
	}
	if _, err := machine.ByName("CM5"); err == nil {
		t.Error("unknown machine must fail")
	}
}

// The qualitative facts of §3 the placement algorithm relies on.
func TestPaperFacts(t *testing.T) {
	sp2, now := machine.SP2(), machine.NOW()

	// The NOW has higher per-message overhead and lower bandwidth.
	if now.SendOverhead <= sp2.SendOverhead {
		t.Error("NOW send overhead should exceed SP2's")
	}
	if now.PerByte <= sp2.PerByte {
		t.Error("NOW bandwidth should be below SP2's")
	}

	for _, m := range []machine.Machine{sp2, now} {
		// Startup amortization happens well below the cache size.
		if hp := m.HalfPowerPoint(); hp >= m.CacheBytes {
			t.Errorf("%s: half-power point %d not below cache %d", m.Name, hp, m.CacheBytes)
		}
		// In-cache bcopy dwarfs network bandwidth, so packing for
		// combining is nearly free.
		if m.BcopyBandwidth(4096) < 3*m.NetworkBandwidth(4096) {
			t.Errorf("%s: in-cache bcopy should dwarf network bandwidth", m.Name)
		}
		// Past the cache the bcopy advantage shrinks markedly.
		big := 8 * m.CacheBytes
		inRatio := m.BcopyBandwidth(4096) / m.NetworkBandwidth(4096)
		outRatio := m.BcopyBandwidth(big) / m.NetworkBandwidth(big)
		if outRatio > inRatio/2 {
			t.Errorf("%s: out-of-cache bcopy/network ratio %.1f did not shrink (in-cache %.1f)", m.Name, outRatio, inRatio)
		}
		// The 20 KB combining threshold is within the in-cache regime.
		if core.DefaultCombineThresholdBytes > m.CacheBytes {
			t.Errorf("%s: combining threshold beyond cache", m.Name)
		}
	}
}

func TestSP2BarelyTwice(t *testing.T) {
	// §3: "for the SP2, bcopy bandwidth is barely twice message
	// bandwidth beyond cache size".
	m := machine.SP2()
	big := 8 * m.CacheBytes
	ratio := m.BcopyBandwidth(big) / m.NetworkBandwidth(big)
	if ratio < 1.2 || ratio > 2.5 {
		t.Errorf("SP2 out-of-cache bcopy/network ratio %.2f, want roughly 2", ratio)
	}
}

func TestMonotonicity(t *testing.T) {
	for _, m := range []machine.Machine{machine.SP2(), machine.NOW()} {
		f := func(au, bu uint16) bool {
			a, b := int(au), int(bu)
			if a > b {
				a, b = b, a
			}
			return m.MsgTime(a) <= m.MsgTime(b) &&
				m.BcopyTime(a) <= m.BcopyTime(b) &&
				m.InjectTime(a) <= m.InjectTime(b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestBandwidthRises(t *testing.T) {
	// Effective network bandwidth must rise with message size (the
	// Fig. 5 bottom curve) and approach the asymptote.
	for _, m := range []machine.Machine{machine.SP2(), machine.NOW()} {
		prev := 0.0
		for bytes := 16; bytes <= 1<<22; bytes *= 4 {
			bw := m.NetworkBandwidth(bytes)
			if bw < prev {
				t.Errorf("%s: bandwidth fell at %d bytes", m.Name, bytes)
			}
			prev = bw
		}
		asym := 1.0 / m.PerByte
		if got := m.NetworkBandwidth(1 << 22); got < 0.9*asym {
			t.Errorf("%s: large-message bandwidth %.0f below 90%% of asymptote %.0f", m.Name, got, asym)
		}
	}
}

func TestBcopyKnee(t *testing.T) {
	m := machine.SP2()
	in := m.BcopyBandwidth(m.CacheBytes / 2)
	out := m.BcopyBandwidth(m.CacheBytes * 16)
	if in <= out {
		t.Errorf("bcopy bandwidth should drop past the cache: in %.0f, out %.0f", in, out)
	}
	if m.BcopyTime(0) != 0 || m.BcopyTime(-5) != 0 {
		t.Error("non-positive sizes copy in zero time")
	}
}

func TestReduceTime(t *testing.T) {
	m := machine.SP2()
	if m.ReduceTime(8, 1) != 0 {
		t.Error("single processor reduces locally")
	}
	t2 := m.ReduceTime(8, 2)
	t16 := m.ReduceTime(8, 16)
	if t16 != 4*t2 {
		t.Errorf("tree depth scaling: P=16 should cost 4x P=2 (%g vs %g)", t16, t2)
	}
}

func TestEdgeSizes(t *testing.T) {
	m := machine.NOW()
	if m.MsgTime(-1) != m.MsgTime(0) {
		t.Error("negative sizes clamp to zero")
	}
	if m.NetworkBandwidth(0) != 0 || m.BcopyBandwidth(0) != 0 || m.InjectBandwidth(0) != 0 {
		t.Error("zero-size bandwidth is zero")
	}
}
