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
	if degree < 0 || len(points) < degree+1 {
		return nil, nil, fmt.Errorf("%w: degree %d with %d points", ErrBadParams, degree, len(points))
	}
	for _, x := range points {
		if x.IsZero() {
			return nil, nil, fmt.Errorf("%w: zero public point", ErrBadParams)
		}
	}
	poly, err := field.NewRandomPoly(secret, degree, rng)
	if err != nil {
		return nil, nil, fmt.Errorf("sample polynomial: %w", err)
	}
	commit := &Commitment{points: make([]elem, len(poly))}
	for i, coeff := range poly {
		commit.points[i] = gExp(coeff.Uint64())
	}
	shares := make([]Share, len(points))
	for i, x := range points {
		shares[i] = Share{X: x, Value: poly.Eval(x)}
	}
	return shares, commit, nil
}

// Verify checks that the share lies on the dealer's committed polynomial:
//
//	G^{value} == Π points[i]^(x^i)   (mod P)
//
// Because the subgroup order equals the share field modulus q, exponent
// arithmetic mod q matches polynomial arithmetic over GF(q) exactly. The
// right side is evaluated in Horner form, (((C_k)^x·C_{k−1})^x ···)^x·C_0,
// with the integer x^i as exponent, not x^i mod q: the two agree on every
// point of the order-q subgroup, and a Commitment holds no other points.
func Verify(s Share, commit *Commitment) error {
	if commit == nil || len(commit.points) == 0 {
		return ErrBadCommitment
	}
	lhs := gExp(s.Value.Uint64())

	x := s.X.Uint64()
	k := len(commit.points) - 1
	rhs := commit.points[k]
	for i := k - 1; i >= 0; i-- {
		montExp(&rhs, &rhs, x)
		montMul(&rhs, &rhs, &commit.points[i])
	}
	if lhs != rhs {
		return ErrVerifyFailed
	}
	return nil
}

// AggregateCommitments multiplies per-source commitment vectors
// coefficient-wise, yielding the commitment to the SUM polynomial — so the
// reconstruction phase can verify public-point sums the same way shares are
// verified (Feldman commitments are additively homomorphic). Products of
// subgroup points stay in the subgroup.
func AggregateCommitments(commits []*Commitment) (*Commitment, error) {
	if len(commits) == 0 || commits[0] == nil {
		return nil, ErrBadCommitment
	}
	out := &Commitment{points: slices.Clone(commits[0].points)}
	for _, c := range commits[1:] {
		if c == nil || len(c.points) != len(out.points) {
			return nil, fmt.Errorf("%w: mismatched vector widths", ErrBadCommitment)
		}
		for i := range out.points {
			montMul(&out.points[i], &out.points[i], &c.points[i])
		}
	}
	return out, nil
}
