package field

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
)

// Poly is a polynomial over GF(p) stored as coefficients in ascending order:
// Poly{c0, c1, c2} represents c0 + c1·x + c2·x².
//
// Shamir Secret Sharing hides the secret in the constant term c0 = P(0); the
// remaining coefficients are sampled uniformly at random.
type Poly []Element

// Errors returned by polynomial routines.
var (
	// ErrEmptyPoly is returned when an operation needs at least one coefficient.
	ErrEmptyPoly = errors.New("field: empty polynomial")
	// ErrDegree is returned for invalid degree arguments.
	ErrDegree = errors.New("field: invalid degree")
)

// NewRandomPoly samples a degree-k polynomial with the given constant term
// (the secret) and uniformly random higher coefficients drawn from rng.
// The leading coefficient is resampled until non-zero so the polynomial has
// exact degree k; otherwise a lower effective degree would silently weaken
// the collusion threshold accounting.
func NewRandomPoly(secret Element, degree int, rng io.Reader) (Poly, error) {
	if degree < 0 {
		return nil, fmt.Errorf("%w: %d", ErrDegree, degree)
	}
	p := make(Poly, degree+1)
	if err := p.Randomize(secret, rng); err != nil {
		return nil, err
	}
	return p, nil
}

// Randomize is NewRandomPoly into p's own memory: it overwrites p with a
// polynomial of degree len(p)-1 and constant term secret, drawing from rng
// exactly as NewRandomPoly does, so callers sampling many polynomials can
// reuse one.
func (p Poly) Randomize(secret Element, rng io.Reader) error {
	if len(p) == 0 {
		return ErrEmptyPoly
	}
	degree := len(p) - 1
	p[0] = secret
	for i := 1; i <= degree; i++ {
		e, err := randomElement(rng)
		if err != nil {
			return fmt.Errorf("sample coefficient %d: %w", i, err)
		}
		p[i] = e
	}
	// Force exact degree (only relevant for degree >= 1).
	for degree >= 1 && p[degree].IsZero() {
		e, err := randomElement(rng)
		if err != nil {
			return fmt.Errorf("resample leading coefficient: %w", err)
		}
		p[degree] = e
	}
	return nil
}

// randomElement draws a uniform field element by rejection sampling 64-bit
// words down to the 61-bit canonical range.
func randomElement(rng io.Reader) (Element, error) {
	var buf [8]byte
	for {
		if err := readFull(rng, buf[:]); err != nil {
			return 0, err
		}
		v := uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24 |
			uint64(buf[4])<<32 | uint64(buf[5])<<40 | uint64(buf[6])<<48 | uint64(buf[7])<<56
		v >>= 3 // keep 61 bits
		if v < Modulus {
			return Element(v), nil
		}
	}
}

// readFull fills buf from rng as io.ReadFull does. The usual reader, a
// *rand.Rand, is called directly — its Read always fills buf, and its byte
// stream does not depend on how reads are split — so buf does not escape
// and a coefficient draw allocates nothing; any other reader fills a heap
// copy through io.ReadFull.
func readFull(rng io.Reader, buf []byte) error {
	if r, ok := rng.(*rand.Rand); ok {
		r.Read(buf)
		return nil
	}
	tmp := make([]byte, len(buf))
	if _, err := io.ReadFull(rng, tmp); err != nil {
		return err
	}
	copy(buf, tmp)
	return nil
}

// Degree returns the index of the highest coefficient slot. It does not trim
// leading zeros: a Poly built for threshold k reports k even if the random
// draw produced a zero leading coefficient (NewRandomPoly prevents that).
func (p Poly) Degree() int { return len(p) - 1 }

// Eval evaluates the polynomial at x using Horner's rule.
func (p Poly) Eval(x Element) Element {
	if len(p) == 0 {
		return Zero
	}
	acc := p[len(p)-1]
	for i := len(p) - 2; i >= 0; i-- {
		acc = acc.Mul(x).Add(p[i])
	}
	return acc
}

// EvalMany evaluates the polynomial at every point in xs.
func (p Poly) EvalMany(xs []Element) []Element {
	out := make([]Element, len(xs))
	for i, x := range xs {
		out[i] = p.Eval(x)
	}
	return out
}

// Add returns p + q, padding the shorter polynomial with zeros.
func (p Poly) Add(q Poly) Poly {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	out := make(Poly, n)
	for i := range out {
		var a, b Element
		if i < len(p) {
			a = p[i]
		}
		if i < len(q) {
			b = q[i]
		}
		out[i] = a.Add(b)
	}
	return out
}

// Scale returns c·p.
func (p Poly) Scale(c Element) Poly {
	out := make(Poly, len(p))
	for i, v := range p {
		out[i] = v.Mul(c)
	}
	return out
}

// Clone returns an independent copy so callers can mutate freely.
func (p Poly) Clone() Poly {
	out := make(Poly, len(p))
	copy(out, p)
	return out
}

// Constant returns the constant term P(0), i.e. the secret in SSS.
func (p Poly) Constant() Element {
	if len(p) == 0 {
		return Zero
	}
	return p[0]
}
