//go:build ignore

// gen_montmul writes montmul.go: montMul unrolled over the eight 64-bit limbs
// and specialised to the group modulus P, whose limbs 2 to 6 are zero. Each
// reduction row multiplies only by P's nonzero limbs and carries through the
// zero ones. Run it with `go generate ./internal/vss` after changing P;
// TestModulusLimbs fails until the generated constants match groupP again.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"math/big"
	"os"
	"strings"
)

const limbs = 8

// pHex must equal groupP in vss.go.
const pHex = "fffffffffffffff8000000000000000000000000000000000000000000000000" +
	"000000000000000000000000000000000000000000000017bfffffffffffff43"

func main() {
	p, ok := new(big.Int).SetString(pHex, 16)
	if !ok || p.BitLen() > 64*limbs || p.Bit(0) == 0 {
		log.Fatal("gen_montmul: P must be odd and fit in eight limbs")
	}
	var pl [limbs]uint64
	for i := range pl {
		pl[i] = new(big.Int).Rsh(p, uint(64*i)).Uint64()
	}
	inv := pl[0] // p⁻¹ mod 2⁶⁴ by Newton iteration, as negInv64 in the tests
	for i := 0; i < 5; i++ {
		inv *= 2 - pl[0]*inv
	}
	// pLimb names limb j of P in the generated code: a constant, or 0.
	pLimb := func(j int) string {
		if pl[j] == 0 {
			return "0"
		}
		return fmt.Sprintf("p%d", j)
	}
	// addRow emits t += v·2^(64·shift) for the row products v0, v1, … (one
	// name per limb of P or x, "0" where the limb is zero) as one carry
	// chain, carrying on up to t9.
	addRow := func(w func(string, ...any), v []string, shift int) {
		for j, name := range v {
			carry := "c"
			if j == 0 {
				carry = "0"
			}
			w("\t\tt%d, c = bits.Add64(t%d, %s, %s)", j+shift, j+shift, name, carry)
		}
		for k := len(v) + shift; k < limbs+1; k++ {
			w("\t\tt%d, c = bits.Add64(t%d, 0, c)", k, k)
		}
		w("\t\tt%d += c", limbs+1)
	}

	var b bytes.Buffer
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w("// Code generated by gen_montmul.go; DO NOT EDIT.")
	w("")
	w("package vss")
	w("")
	w(`import "math/bits"`)
	w("")
	w("// The nonzero limbs of P, little-endian, and pInv = −P⁻¹ mod 2⁶⁴. The")
	w("// other limbs of P are zero.")
	w("const (")
	for j := range pl {
		if pl[j] != 0 {
			w("\tp%d = %#016x", j, pl[j])
		}
	}
	w("\tpInv = %#016x", -inv)
	w(")")
	w("")
	w("// montMul sets z = x·y·R⁻¹ mod P (CIOS: per limb of y, one multiply row")
	w("// and one reduction row). Each row is unrolled over the limbs: it forms")
	w("// its limb products first, then adds their low and their high halves in")
	w("// two carry chains, so the carries stay in the flags. A reduction row")
	w("// multiplies only by the nonzero limbs of P; the zero limbs only carry.")
	w("// The loop over the rows stays: unrolled too, it lets the compiler hoist")
	w("// all 64 limb products ahead of the chains and spill them to the stack.")
	w("// x and y must be below P; z may alias either.")
	w("func montMul(z, x, y *elem) {")
	w("\t// t is the running sum, %d limbs wide; h and l hold a row's products.", limbs+2)
	w("\tvar %s uint64", names("t", limbs+2))
	w("\tvar %s uint64", names("h", limbs))
	w("\tvar %s uint64", names("l", limbs))
	w("\tvar c uint64")
	w("\tfor i := 0; i < %d; i++ {", limbs)
	w("\t\t// t += x·y[i]. t < 2P after every row, so t%d is zero here.", limbs+1)
	w("\t\tyi := y[i]")
	for j := 0; j < limbs; j++ {
		w("\t\th%d, l%d = bits.Mul64(x[%d], yi)", j, j, j)
	}
	addRow(w, strings.Split(names("l", limbs), ", "), 0)
	addRow(w, strings.Split(names("h", limbs), ", "), 1)
	w("")
	w("\t\t// t = (t + m·P) / 2⁶⁴, with m chosen so the low limb cancels.")
	w("\t\tm := t0 * pInv")
	lo, hi := make([]string, limbs), make([]string, limbs)
	for j := range pl {
		lo[j], hi[j] = "0", "0"
		if pl[j] != 0 {
			lo[j], hi[j] = fmt.Sprintf("l%d", j), fmt.Sprintf("h%d", j)
			w("\t\th%d, l%d = bits.Mul64(m, p%d)", j, j, j)
		}
	}
	addRow(w, lo, 0)
	addRow(w, hi, 1)
	w("\t\t%s = %s, 0", names("t", limbs+2), names("t", limbs+2)[len("t0, "):])
	w("\t}")
	w("")
	w("\t// t < 2P, so one conditional subtraction reduces it fully.")
	for j := 0; j < limbs; j++ {
		borrow := "b"
		if j == 0 {
			borrow = "0"
		}
		w("\td%d, b := bits.Sub64(t%d, %s, %s)", j, j, pLimb(j), borrow)
	}
	w("\tif t%d != 0 || b == 0 {", limbs)
	w("\t\t*z = elem{%s}", names("d", limbs))
	w("\t} else {")
	w("\t\t*z = elem{%s}", names("t", limbs))
	w("\t}")
	w("}")

	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatalf("gen_montmul: format: %v\n%s", err, b.Bytes())
	}
	if err := os.WriteFile("montmul.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}

// names returns "v0, v1, …, v(n−1)".
func names(v string, n int) string {
	s := make([]string, n)
	for j := range s {
		s[j] = fmt.Sprintf("%s%d", v, j)
	}
	return strings.Join(s, ", ")
}
