package vss

import (
	"math/big"
	"math/rand"
	"testing"

	"iotmpc/internal/field"
)

// TestMontMulMatchesBig checks montMul(a, b) = a·b·R⁻¹ mod P against
// big.Int Mul+Mod on the edge residues and random ones, including z
// aliasing an operand, and that Montgomery conversion round-trips.
func TestMontMulMatchesBig(t *testing.T) {
	rInv := new(big.Int).ModInverse(rPow(1), groupP)
	vals := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(groupP, big.NewInt(1)),
		rPow(1),
		// −R mod P: its products with P−1 and with itself reduce to the
		// small residues 1 and R mod P, which montMul reaches only through
		// its final subtraction.
		new(big.Int).Sub(groupP, rPow(1)),
		groupG,
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8; i++ {
		vals = append(vals, new(big.Int).Rand(rng, groupP))
	}
	for _, a := range vals {
		for _, b := range vals {
			want := new(big.Int).Mul(a, b)
			want.Mul(want.Mod(want, groupP), rInv).Mod(want, groupP)
			x, y := limbsOf(a), limbsOf(b)
			var z elem
			montMul(&z, &x, &y)
			if z != limbsOf(want) {
				t.Fatalf("montMul(%x, %x) = %x, want %x", a, b, z, want)
			}
			montMul(&x, &x, &y)
			if x != z {
				t.Fatalf("montMul with z aliasing x differs for (%x, %x)", a, b)
			}
		}
		m := montFromBig(a)
		if got := montToBig(&m); got.Cmp(a) != 0 {
			t.Fatalf("round trip of %x gave %x", a, got)
		}
	}
}

// TestGExpMatchesBig checks the fixed-base table across the whole 64-bit
// exponent range, beyond q included.
func TestGExpMatchesBig(t *testing.T) {
	exps := []uint64{0, 1, 2, 255, 256, 1<<16 - 1, field.Modulus - 1, field.Modulus, 1<<64 - 1}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 8; i++ {
		exps = append(exps, rng.Uint64())
	}
	for _, e := range exps {
		g := gExp(e)
		want := new(big.Int).Exp(groupG, new(big.Int).SetUint64(e), groupP)
		if got := montToBig(&g); got.Cmp(want) != 0 {
			t.Errorf("G^%d = %x, want %x", e, got, want)
		}
	}
}
