package vss

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"

	"iotmpc/internal/field"
)

// modP and loopPInv are P as limbs and −P⁻¹ mod 2⁶⁴, for montMulLoop.
var (
	modP     = limbsOf(groupP)
	loopPInv = negInv64(modP[0])
)

// negInv64 returns −p⁻¹ mod 2⁶⁴ for odd p by Newton iteration: p·p ≡ 1
// (mod 8) gives 3 correct bits, and each step doubles them.
func negInv64(p uint64) uint64 {
	x := p
	for i := 0; i < 5; i++ {
		x *= 2 - p*x
	}
	return -x
}

// montMulLoop is the CIOS Montgomery product as a loop over every limb of
// P, with no knowledge of which limbs are zero: the oracle for the
// generated montMul. x and y must be below P; z may alias either.
func montMulLoop(z, x, y *elem) {
	var t [limbs + 2]uint64
	for i := 0; i < limbs; i++ {
		// t += x·y[i]. Each limb product plus two carries fits in 128 bits.
		var c, cc uint64
		for j := 0; j < limbs; j++ {
			hi, lo := bits.Mul64(x[j], y[i])
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			hi += cc
			t[j], c = lo, hi
		}
		t[limbs], cc = bits.Add64(t[limbs], c, 0)
		t[limbs+1] = cc

		// t = (t + m·P) / 2⁶⁴, with m chosen so the low limb cancels.
		m := t[0] * loopPInv
		hi, lo := bits.Mul64(m, modP[0])
		_, cc = bits.Add64(lo, t[0], 0)
		c = hi + cc
		for j := 1; j < limbs; j++ {
			hi, lo = bits.Mul64(m, modP[j])
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			hi += cc
			t[j-1], c = lo, hi
		}
		t[limbs-1], cc = bits.Add64(t[limbs], c, 0)
		t[limbs] = t[limbs+1] + cc
	}
	// t < 2P, so one conditional subtraction reduces it fully.
	var d elem
	var b uint64
	for j := 0; j < limbs; j++ {
		d[j], b = bits.Sub64(t[j], modP[j], b)
	}
	if t[limbs] != 0 || b == 0 {
		*z = d
	} else {
		copy(z[:], t[:limbs])
	}
}

// TestModulusLimbs checks the constants montmul.go was generated with
// against groupP: the nonzero limbs, the zero limbs the reduction skips,
// and −P⁻¹ mod 2⁶⁴.
func TestModulusLimbs(t *testing.T) {
	if got, want := (elem{p0, p1, 0, 0, 0, 0, 0, p7}), limbsOf(groupP); got != want {
		t.Fatalf("generated limbs %x, groupP has %x: set pHex in gen_montmul.go and rerun go generate", got, want)
	}
	if pInv != negInv64(p0) {
		t.Fatalf("pInv = %#x is not −P⁻¹ mod 2⁶⁴", uint64(pInv))
	}
}

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

// montEdges are the residues montMul is most likely to get wrong: 0, 1,
// P−1, R mod P, −R mod P (whose products with P−1 and with itself reach
// small residues only through the final subtraction) and G.
func montEdges() []*big.Int {
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(groupP, big.NewInt(1)),
		rPow(1),
		new(big.Int).Sub(groupP, rPow(1)),
		groupG,
	}
}

// FuzzMontMulMatchesBig checks montMul against big.Int Mul and Mod times
// R⁻¹, and against montMulLoop, on residues reduced from the fuzz bytes,
// with z distinct from, aliasing x, aliasing y, and aliasing both operands.
func FuzzMontMulMatchesBig(f *testing.F) {
	for _, a := range montEdges() {
		for _, b := range montEdges() {
			f.Add(a.Bytes(), b.Bytes())
		}
	}
	rInv := new(big.Int).ModInverse(rPow(1), groupP)
	montProduct := func(a, b *big.Int) elem {
		p := new(big.Int).Mul(a, b)
		return limbsOf(p.Mul(p.Mod(p, groupP), rInv).Mod(p, groupP))
	}
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		a := new(big.Int).Mod(new(big.Int).SetBytes(ab), groupP)
		b := new(big.Int).Mod(new(big.Int).SetBytes(bb), groupP)
		x, y := limbsOf(a), limbsOf(b)
		want := montProduct(a, b)

		var z, loop elem
		montMul(&z, &x, &y)
		if z != want {
			t.Fatalf("montMul(%x, %x) = %x, want %x", a, b, z, want)
		}
		montMulLoop(&loop, &x, &y)
		if loop != z {
			t.Fatalf("montMulLoop(%x, %x) = %x, montMul %x", a, b, loop, z)
		}
		zx, zy := x, y
		montMul(&zx, &zx, &y)
		montMul(&zy, &x, &zy)
		if zx != want || zy != want {
			t.Fatalf("montMul(%x, %x) with z aliasing x = %x, y = %x, want %x", a, b, zx, zy, want)
		}
		sq := x
		montMul(&sq, &sq, &sq)
		if want := montProduct(a, a); sq != want {
			t.Fatalf("montMul(%x, %x) with z aliasing both = %x, want %x", a, a, sq, want)
		}
	})
}

func BenchmarkMontMul(b *testing.B) { benchmarkMontMul(b, montMul) }

func BenchmarkMontMulLoop(b *testing.B) { benchmarkMontMul(b, montMulLoop) }

// benchmarkMontMul times one Montgomery product in a dependent chain
// acc = acc·G, the pattern of montExp and Verify's Horner steps.
func benchmarkMontMul(b *testing.B, mul func(z, x, y *elem)) {
	g := montFromBig(groupG)
	acc := g
	for b.Loop() {
		mul(&acc, &acc, &g)
	}
}
