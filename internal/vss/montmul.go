// Code generated by gen_montmul.go; DO NOT EDIT.

package vss

import "math/bits"

// The nonzero limbs of P, little-endian, and pInv = −P⁻¹ mod 2⁶⁴. The
// other limbs of P are zero.
const (
	p0   = 0xbfffffffffffff43
	p1   = 0x0000000000000017
	p7   = 0xfffffffffffffff8
	pInv = 0x653fa94fea53fa95
)

// montMul sets z = x·y·R⁻¹ mod P (CIOS: per limb of y, one multiply row
// and one reduction row). Each row is unrolled over the limbs: it forms
// its limb products first, then adds their low and their high halves in
// two carry chains, so the carries stay in the flags. A reduction row
// multiplies only by the nonzero limbs of P; the zero limbs only carry.
// The loop over the rows stays: unrolled too, it lets the compiler hoist
// all 64 limb products ahead of the chains and spill them to the stack.
// x and y must be below P; z may alias either.
func montMul(z, x, y *elem) {
	// t is the running sum, 10 limbs wide; h and l hold a row's products.
	var t0, t1, t2, t3, t4, t5, t6, t7, t8, t9 uint64
	var h0, h1, h2, h3, h4, h5, h6, h7 uint64
	var l0, l1, l2, l3, l4, l5, l6, l7 uint64
	var c uint64
	for i := 0; i < 8; i++ {
		// t += x·y[i]. t < 2P after every row, so t9 is zero here.
		yi := y[i]
		h0, l0 = bits.Mul64(x[0], yi)
		h1, l1 = bits.Mul64(x[1], yi)
		h2, l2 = bits.Mul64(x[2], yi)
		h3, l3 = bits.Mul64(x[3], yi)
		h4, l4 = bits.Mul64(x[4], yi)
		h5, l5 = bits.Mul64(x[5], yi)
		h6, l6 = bits.Mul64(x[6], yi)
		h7, l7 = bits.Mul64(x[7], yi)
		t0, c = bits.Add64(t0, l0, 0)
		t1, c = bits.Add64(t1, l1, c)
		t2, c = bits.Add64(t2, l2, c)
		t3, c = bits.Add64(t3, l3, c)
		t4, c = bits.Add64(t4, l4, c)
		t5, c = bits.Add64(t5, l5, c)
		t6, c = bits.Add64(t6, l6, c)
		t7, c = bits.Add64(t7, l7, c)
		t8, c = bits.Add64(t8, 0, c)
		t9 += c
		t1, c = bits.Add64(t1, h0, 0)
		t2, c = bits.Add64(t2, h1, c)
		t3, c = bits.Add64(t3, h2, c)
		t4, c = bits.Add64(t4, h3, c)
		t5, c = bits.Add64(t5, h4, c)
		t6, c = bits.Add64(t6, h5, c)
		t7, c = bits.Add64(t7, h6, c)
		t8, c = bits.Add64(t8, h7, c)
		t9 += c

		// t = (t + m·P) / 2⁶⁴, with m chosen so the low limb cancels.
		m := t0 * pInv
		h0, l0 = bits.Mul64(m, p0)
		h1, l1 = bits.Mul64(m, p1)
		h7, l7 = bits.Mul64(m, p7)
		t0, c = bits.Add64(t0, l0, 0)
		t1, c = bits.Add64(t1, l1, c)
		t2, c = bits.Add64(t2, 0, c)
		t3, c = bits.Add64(t3, 0, c)
		t4, c = bits.Add64(t4, 0, c)
		t5, c = bits.Add64(t5, 0, c)
		t6, c = bits.Add64(t6, 0, c)
		t7, c = bits.Add64(t7, l7, c)
		t8, c = bits.Add64(t8, 0, c)
		t9 += c
		t1, c = bits.Add64(t1, h0, 0)
		t2, c = bits.Add64(t2, h1, c)
		t3, c = bits.Add64(t3, 0, c)
		t4, c = bits.Add64(t4, 0, c)
		t5, c = bits.Add64(t5, 0, c)
		t6, c = bits.Add64(t6, 0, c)
		t7, c = bits.Add64(t7, 0, c)
		t8, c = bits.Add64(t8, h7, c)
		t9 += c
		t0, t1, t2, t3, t4, t5, t6, t7, t8, t9 = t1, t2, t3, t4, t5, t6, t7, t8, t9, 0
	}

	// t < 2P, so one conditional subtraction reduces it fully.
	d0, b := bits.Sub64(t0, p0, 0)
	d1, b := bits.Sub64(t1, p1, b)
	d2, b := bits.Sub64(t2, 0, b)
	d3, b := bits.Sub64(t3, 0, b)
	d4, b := bits.Sub64(t4, 0, b)
	d5, b := bits.Sub64(t5, 0, b)
	d6, b := bits.Sub64(t6, 0, b)
	d7, b := bits.Sub64(t7, p7, b)
	if t8 != 0 || b == 0 {
		*z = elem{d0, d1, d2, d3, d4, d5, d6, d7}
	} else {
		*z = elem{t0, t1, t2, t3, t4, t5, t6, t7}
	}
}
