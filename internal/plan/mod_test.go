package plan

import (
	"math"
	"math/rand"
	"testing"
)

// TestModMatchesMathMod holds the lowered mod intrinsic against math.Mod
// — what refeval, the oracle, calls — by bit pattern: the table names the
// places where an integer remainder and fmod could part (the sign of a
// zero result, y = 0, the non-finite operands, magnitudes from 2⁵³ where
// float64 stops holding every integer up to the ends of int64, fractions)
// and 10⁵ seeded pairs mix the exact path's operands with the rest.
func TestModMatchesMathMod(t *testing.T) {
	inf, nan, zeroNeg := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	two53, two63 := float64(1<<53), float64(1<<63)
	check := func(x, y float64) {
		t.Helper()
		if got, want := mod(x, y), math.Mod(x, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("mod(%v, %v) = %v (%#x), math.Mod = %v (%#x)", x, y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	special := []float64{
		0, zeroNeg, 1, -1, 2, -2, 3, -3, 6, -6, 7, -7, 0.5, -0.5, 2.5, -7.25, 1e-300, -1e-300,
		inf, -inf, nan,
		two53 - 1, -(two53 - 1), two53, -two53, two53 + 2, -(two53 + 2),
		two63, -two63, math.Nextafter(two63, 0), -math.Nextafter(two63, 0), two63 * 2, -two63 * 2,
		math.MaxInt32, math.MinInt32, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	for _, x := range special {
		for _, y := range special {
			check(x, y)
		}
	}

	rng := rand.New(rand.NewSource(22))
	operand := func() float64 {
		switch rng.Intn(8) {
		case 0: // what the benchmarks pass: small integers of either sign
			return float64(rng.Intn(201) - 100)
		case 1:
			return float64(rng.Int63n(1<<53)) * float64(1-2*rng.Intn(2))
		case 2: // around the end of the exact range
			return float64(1<<53-4+rng.Int63n(8)) * float64(1-2*rng.Intn(2))
		case 3:
			return float64(rng.Intn(41)-20) / 4
		case 4:
			return rng.NormFloat64() * 1e3
		case 5:
			return math.Float64frombits(rng.Uint64()) // any pattern: NaNs, infinities, subnormals
		case 6:
			return special[rng.Intn(len(special))]
		default:
			return float64(rng.Intn(15) - 7)
		}
	}
	for i := 0; i < 100000; i++ {
		check(operand(), operand())
	}
}
