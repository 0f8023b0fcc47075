// Package vss implements Feldman verifiable secret sharing (Feldman, FOCS
// 1987) as the hardening path beyond the paper's semi-honest model: the
// dealer publishes commitments to its polynomial coefficients in a
// discrete-log group, and every share holder can verify — without
// interaction — that its share lies on the committed polynomial. A malicious
// source can then no longer poison the aggregation with inconsistent shares;
// the paper's protocol (honest-but-curious) omits this and lists stronger
// adversaries as future work.
//
// Feldman requires the commitment group's order to equal the share field's
// modulus, so the group below is the order-q subgroup (q = 2⁶¹−1, the
// protocol field) of Z*_P for a 512-bit prime P = k·q+1. The 61-bit exponent
// order is far below production DL security — these are *simulation*
// parameters chosen so the layer composes exactly with internal/shamir; the
// construction is what matters for the reproduction. Commitments ride the
// same MiniCast chain as data items (k+1 group elements per source).
//
// A commitment has two forms. The group form (Commitment: G^{c_i} per
// coefficient c_i) is the wire format — NewCommitment brings points in and
// Bytes sizes them — and the oracle. The exponent form is the dealt
// coefficients themselves, a field.Poly, which a simulation that knows
// every dealer's polynomial may hold instead (DealExponents, VerifyExponents,
// Lift). The two are exact equivalents, not an approximation: G has order q,
// so e ↦ G^e maps GF(q) one-to-one onto the subgroup, and NewCommitment
// admits no point outside it. Verify's G^{value} == Π points[i]^(x^i) then
// holds exactly when value == Σ c_i·x^i in the field, which is
// VerifyExponents' Horner pass, and a tamper by ×G^r on a point is a tamper
// by +r on its coefficient (FuzzExponentMatchesGroup). Simulated rounds
// verify in the exponent form, share by share; the device's cost of the
// group arithmetic is charged by the CPU model, not run.
//
// Verify checks one share. VerifySum checks, at about the cost of one
// Verify, the sum of many dealers' shares at one public point against the
// product of their commitments (Mul): Feldman commitments are additively
// homomorphic. The sum check accepts whenever every share in the sum
// passes Verify, and with one wrong share value or commitment it rejects
// exactly when Verify does (FuzzBatchMatchesPerShare). It is not sound
// against two or more cheating dealers: errors of +d and −d in two shares
// cancel in the sum (TestBatchSumCaveat). A check that must hold against
// colluding dealers, or name the one that cheated, verifies share by
// share, as rounds do. Random small-exponent weights per dealer (Bellare,
// Garay and Rabin, "Fast Batch Verification for Modular Exponentiation and
// Digital Signatures", EUROCRYPT 1998) would make the sum check sound, but
// not cheaply here: a 32-bit weight costs about 48 multiplies per
// coefficient, while a whole per-share check costs about 7 per Horner
// level, because public points are small.
package vss

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"

	"iotmpc/internal/field"
)

// Group parameters: P = k·q + 1 is a 512-bit prime with q = 2^61-1 (the
// share field modulus); G = 2^k mod P generates the order-q subgroup.
var (
	groupP, _ = new(big.Int).SetString(
		"fffffffffffffff8000000000000000000000000000000000000000000000000"+
			"000000000000000000000000000000000000000000000017bfffffffffffff43", 16)
	groupG, _ = new(big.Int).SetString(
		"f5f3169cb9fba5d3c8883f55fbb4365b2c44b229eca272af1b623820184e3dbe"+
			"11e08b9c84bd6a44f1d54d2623c2c11ba84ed2bd750d12bc45424db4e8b9c167", 16)
)

// Errors returned by the package.
var (
	// ErrVerifyFailed is returned when a share does not match the dealer's
	// commitments.
	ErrVerifyFailed = errors.New("vss: share verification failed")
	// ErrBadCommitment is returned for malformed commitment vectors.
	ErrBadCommitment = errors.New("vss: invalid commitment")
	// ErrNotInSubgroup is returned by NewCommitment for a point in (0, P)
	// that lies outside the order-q subgroup. It wraps ErrBadCommitment.
	ErrNotInSubgroup = fmt.Errorf("%w: point outside the order-q subgroup", ErrBadCommitment)
	// ErrBadParams is returned for invalid dealing parameters.
	ErrBadParams = errors.New("vss: invalid parameters")
)

// Share mirrors shamir.Share; declared locally so the aggregation layer and
// the verification layer stay independently usable.
type Share struct {
	X     field.Element
	Value field.Element
}

// Commitment is the dealer's public commitment vector:
// points[i] = G^{c_i} mod P for polynomial coefficient c_i, held in
// Montgomery form. Every point lies in the order-q subgroup: Deal and
// AggregateCommitments build such points by construction, and
// NewCommitment, the one way to bring in points from outside, checks them.
type Commitment struct {
	points []elem
}

// NewCommitment builds a commitment vector from received points. It rejects
// an empty vector and points outside (0, P) with ErrBadCommitment, and
// points whose order does not divide q with ErrNotInSubgroup — one 61-bit
// exponentiation per point, paid here so that Verify needs no check.
func NewCommitment(points []*big.Int) (*Commitment, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("%w: no points", ErrBadCommitment)
	}
	c := &Commitment{points: make([]elem, len(points))}
	for i, p := range points {
		if p == nil || p.Sign() <= 0 || p.Cmp(groupP) >= 0 {
			return nil, fmt.Errorf("%w: point %d outside (0, P)", ErrBadCommitment, i)
		}
		c.points[i] = montFromBig(p)
		var order elem
		montExp(&order, &c.points[i], field.Modulus)
		if order != montOne {
			return nil, fmt.Errorf("%w: point %d", ErrNotInSubgroup, i)
		}
	}
	return c, nil
}

// Degree returns the committed polynomial degree.
func (c *Commitment) Degree() int { return len(c.points) - 1 }

// Bytes returns the wire size of the commitment vector — what the sharing
// chain additionally carries per source when verification is enabled.
func (c *Commitment) Bytes() int {
	return len(c.points) * ((groupP.BitLen() + 7) / 8)
}

// SecretCommitment returns the dealer's commitment to the secret itself
// (G^{P(0)}), useful for cross-checking aggregates.
func (c *Commitment) SecretCommitment() *big.Int {
	if len(c.points) == 0 {
		return nil
	}
	return montToBig(&c.points[0])
}

// Deal splits a secret verifiably: it returns the shares together with the
// commitment vector that holders verify against.
func Deal(secret field.Element, degree int, points []field.Element, rng io.Reader) ([]Share, *Commitment, error) {
	values := make([]field.Element, len(points))
	commit := new(Commitment)
	if err := DealInto(values, commit, secret, degree, points, rng, make(field.Poly, max(degree+1, 0))); err != nil {
		return nil, nil, err
	}
	shares := make([]Share, len(points))
	for i, x := range points {
		shares[i] = Share{X: x, Value: values[i]}
	}
	return shares, commit, nil
}

// DealInto is Deal into caller-owned memory: values[i] receives the share
// at points[i], commit is overwritten in its own storage, and poly, at
// least degree+1 long, holds the polynomial. It is DealExponents followed
// by Lift, so it draws from rng exactly as Deal and DealExponents do, and a
// caller that deals again and again into the same buffers allocates
// nothing once they are large enough.
func DealInto(values []field.Element, commit *Commitment, secret field.Element, degree int, points []field.Element, rng io.Reader, poly field.Poly) error {
	if commit == nil {
		return fmt.Errorf("%w: nil commitment", ErrBadParams)
	}
	if err := DealExponents(values, poly, secret, degree, points, rng); err != nil {
		return err
	}
	commit.Lift(poly[:degree+1])
	return nil
}

// DealExponents deals a secret into caller-owned memory with its
// commitment in the exponent form: coeffs[:degree+1] receives the
// polynomial, which is the commitment, and values[i] the share at
// points[i]. It draws from rng exactly as Deal does.
func DealExponents(values []field.Element, coeffs field.Poly, secret field.Element, degree int, points []field.Element, rng io.Reader) error {
	if degree < 0 || len(points) < degree+1 {
		return fmt.Errorf("%w: degree %d with %d points", ErrBadParams, degree, len(points))
	}
	for _, x := range points {
		if x.IsZero() {
			return fmt.Errorf("%w: zero public point", ErrBadParams)
		}
	}
	if len(values) != len(points) || len(coeffs) < degree+1 {
		return fmt.Errorf("%w: %d values and %d coefficients for %d points at degree %d",
			ErrBadParams, len(values), len(coeffs), len(points), degree)
	}
	coeffs = coeffs[:degree+1]
	if err := coeffs.Randomize(secret, rng); err != nil {
		return fmt.Errorf("sample polynomial: %w", err)
	}
	for i, x := range points {
		values[i] = coeffs.Eval(x)
	}
	return nil
}

// VerifyExponents is Verify against a commitment in the exponent form: the
// share lies on the committed polynomial iff coeffs evaluates to its value
// at its point. Its verdict equals Verify's against Lift(coeffs) on every
// input (see the package doc).
func VerifyExponents(s Share, coeffs field.Poly) error {
	if len(coeffs) == 0 {
		return ErrBadCommitment
	}
	if coeffs.Eval(s.X) != s.Value {
		return ErrVerifyFailed
	}
	return nil
}

// Lift sets z, in its own storage, to the group form of the commitment
// whose exponent form is coeffs: one point G^{c_i} per coefficient.
func (z *Commitment) Lift(coeffs field.Poly) {
	z.points = slices.Grow(z.points[:0], len(coeffs))[:len(coeffs)]
	for i, c := range coeffs {
		z.points[i] = gExp(c.Uint64())
	}
}

// eval returns the committed polynomial evaluated in the exponent at the
// public point x, Π points[i]^(x^i), in Horner form
// (((C_k)^x·C_{k−1})^x ···)^x·C_0, with the integer x^i as exponent, not
// x^i mod q: the two agree on every point of the order-q subgroup, and a
// Commitment holds no other points. An empty commitment evaluates to 1.
func (c *Commitment) eval(x uint64) elem {
	k := len(c.points) - 1
	if k < 0 {
		return montOne
	}
	acc := c.points[k]
	for i := k - 1; i >= 0; i-- {
		montExp(&acc, &acc, x)
		montMul(&acc, &acc, &c.points[i])
	}
	return acc
}

// Verify checks that the share lies on the dealer's committed polynomial:
//
//	G^{value} == Π points[i]^(x^i)   (mod P)
//
// Because the subgroup order equals the share field modulus q, exponent
// arithmetic mod q matches polynomial arithmetic over GF(q) exactly.
func Verify(s Share, commit *Commitment) error {
	if commit == nil || len(commit.points) == 0 {
		return ErrBadCommitment
	}
	if gExp(s.Value.Uint64()) != commit.eval(s.X.Uint64()) {
		return ErrVerifyFailed
	}
	return nil
}

// VerifySum is the batch form of Verify for the shares one holder received
// at its public point x. all is the product (Mul) of every dealer's
// commitment, missing the product of the dealers whose shares sum leaves
// out (nil or empty when it leaves out none), and sum the field sum of the
// other dealers' shares. It checks
//
//	G^{sum} · Π missing[i]^(x^i) == Π all[i]^(x^i)   (mod P)
//
// one fixed-base exponentiation and at most two Horner passes, however many
// shares sum holds. If every share in sum passes Verify, so does the sum
// check. The converse fails only when the errors of two or more dealers
// cancel in the sum (see the package doc).
func VerifySum(sum, x field.Element, all, missing *Commitment) error {
	if all == nil || len(all.points) == 0 {
		return ErrBadCommitment
	}
	lhs := gExp(sum.Uint64())
	if missing != nil && len(missing.points) > 0 {
		if len(missing.points) != len(all.points) {
			return fmt.Errorf("%w: mismatched vector widths", ErrBadCommitment)
		}
		m := missing.eval(x.Uint64())
		montMul(&lhs, &lhs, &m)
	}
	if lhs != all.eval(x.Uint64()) {
		return ErrVerifyFailed
	}
	return nil
}

// Set sets z to a copy of x in z's own storage.
func (z *Commitment) Set(x *Commitment) {
	z.points = append(z.points[:0], x.points...)
}

// Mul sets z to the coefficient-wise product of z and x, the commitment to
// the sum of the two committed polynomials (Feldman commitments are
// additively homomorphic): one Montgomery multiply per coefficient.
// Products of subgroup points stay in the subgroup.
func (z *Commitment) Mul(x *Commitment) error {
	if x == nil || len(x.points) != len(z.points) {
		return fmt.Errorf("%w: mismatched vector widths", ErrBadCommitment)
	}
	for i := range z.points {
		montMul(&z.points[i], &z.points[i], &x.points[i])
	}
	return nil
}

// AggregateCommitments multiplies per-source commitment vectors
// coefficient-wise, yielding the commitment to the SUM polynomial — so the
// reconstruction phase can verify public-point sums the same way shares are
// verified.
func AggregateCommitments(commits []*Commitment) (*Commitment, error) {
	if len(commits) == 0 || commits[0] == nil {
		return nil, ErrBadCommitment
	}
	out := new(Commitment)
	out.Set(commits[0])
	for _, c := range commits[1:] {
		if err := out.Mul(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}
