package vss

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"sync"
)

// Host arithmetic mod P. Every exponent in this package is below 2⁶⁴, and
// math/big's Exp switches to Montgomery multiplication only for exponents
// longer than one word: below that it runs a long division after each
// square-and-multiply step. The routines here do the same group arithmetic
// with fixed-width Montgomery products, a fixed-base table for G, and short
// exponents only. None of it is constant time; these are simulation
// parameters (see the package doc).

const limbs = 8 // 64-bit limbs in a 512-bit residue

// elem is a residue mod P as little-endian 64-bit limbs. Inside the package
// it is always in Montgomery form (x·R mod P, R = 2⁵¹²) and fully reduced,
// so two elems are equal exactly when the residues are.
type elem [limbs]uint64

var (
	modP    = limbsOf(groupP)
	pInv    = negInv64(modP[0]) // −P⁻¹ mod 2⁶⁴
	montOne = limbsOf(rPow(1))  // R mod P
	rSquare = limbsOf(rPow(2))  // R² mod P
)

// rPow returns R^k mod P.
func rPow(k int) *big.Int {
	r := new(big.Int).Lsh(big.NewInt(1), uint(k*64*limbs))
	return r.Mod(r, groupP)
}

// negInv64 returns −p⁻¹ mod 2⁶⁴ for odd p by Newton iteration: p·p ≡ 1
// (mod 8) gives 3 correct bits, and each step doubles them.
func negInv64(p uint64) uint64 {
	x := p
	for i := 0; i < 5; i++ {
		x *= 2 - p*x
	}
	return -x
}

// limbsOf returns x (0 ≤ x < 2⁵¹²) as limbs, without any Montgomery
// conversion.
func limbsOf(x *big.Int) elem {
	var buf [limbs * 8]byte
	x.FillBytes(buf[:])
	var e elem
	for i := range e {
		e[i] = binary.BigEndian.Uint64(buf[len(buf)-8*(i+1):])
	}
	return e
}

// montFromBig converts a residue 0 ≤ x < P into Montgomery form.
func montFromBig(x *big.Int) elem {
	e := limbsOf(x)
	montMul(&e, &e, &rSquare)
	return e
}

// montToBig converts e out of Montgomery form into a new big.Int.
func montToBig(e *elem) *big.Int {
	plain := elem{1}
	montMul(&plain, e, &plain)
	var buf [limbs * 8]byte
	for i, w := range plain {
		binary.BigEndian.PutUint64(buf[len(buf)-8*(i+1):], w)
	}
	return new(big.Int).SetBytes(buf[:])
}

// montMul sets z = x·y·R⁻¹ mod P (CIOS: one multiply pass and one reduction
// pass per limb of y). x and y must be below P; z may alias either.
func montMul(z, x, y *elem) {
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
		m := t[0] * pInv
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

// montExp sets z = x^e by left-to-right square-and-multiply; z may alias x.
func montExp(z, x *elem, e uint64) {
	if e == 0 {
		*z = montOne
		return
	}
	acc := *x
	for i := bits.Len64(e) - 2; i >= 0; i-- {
		montMul(&acc, &acc, &acc)
		if e>>uint(i)&1 == 1 {
			montMul(&acc, &acc, x)
		}
	}
	*z = acc
}

// gTable holds gTable()[j][d] = G^(d·2^(8j)) in Montgomery form: one row per
// byte of a 64-bit exponent, 128 KiB with no pointers, built on first use.
var gTable = sync.OnceValue(func() *[8][256]elem {
	t := new([8][256]elem)
	step := montFromBig(groupG) // G^(2^(8j)) for the row being filled
	for j := range t {
		t[j][0] = montOne
		t[j][1] = step
		for d := 2; d < 256; d++ {
			montMul(&t[j][d], &t[j][d-1], &step)
		}
		montMul(&step, &t[j][255], &step)
	}
	return t
})

// gExp returns G^e in Montgomery form: at most seven multiplies, one per
// nonzero byte of e above the lowest.
func gExp(e uint64) elem {
	t := gTable()
	acc := t[0][e&0xff]
	for j := 1; j < len(t); j++ {
		e >>= 8
		if d := e & 0xff; d != 0 {
			montMul(&acc, &acc, &t[j][d])
		}
	}
	return acc
}
