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

// montMul, the Montgomery product everything below is built on, lives in
// montmul.go, unrolled for P's limbs by gen_montmul.go.
//
//go:generate go run gen_montmul.go

var (
	montOne = limbsOf(rPow(1)) // R mod P
	rSquare = limbsOf(rPow(2)) // R² mod P
)

// rPow returns R^k mod P.
func rPow(k int) *big.Int {
	r := new(big.Int).Lsh(big.NewInt(1), uint(k*64*limbs))
	return r.Mod(r, groupP)
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
