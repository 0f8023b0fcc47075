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
// points[i] = G^{c_i} mod P for polynomial coefficient c_i.
type Commitment struct {
	points []*big.Int
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
	return new(big.Int).Set(c.points[0])
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
	commit := &Commitment{points: make([]*big.Int, len(poly))}
	for i, coeff := range poly {
		g := gExp(coeff.Uint64())
		commit.points[i] = montToBig(&g)
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
// with the integer x^i as exponent, not x^i mod q: the two agree for every
// point of the order-q subgroup, but a point outside it (which the range
// check admits) can verify differently once x^k ≥ q.
func Verify(s Share, commit *Commitment) error {
	if commit == nil || len(commit.points) == 0 || !inRange(commit.points) {
		return ErrBadCommitment
	}
	lhs := gExp(s.Value.Uint64())

	x := s.X.Uint64()
	k := len(commit.points) - 1
	rhs := montFromBig(commit.points[k])
	for i := k - 1; i >= 0; i-- {
		c := montFromBig(commit.points[i])
		montExp(&rhs, &rhs, x)
		montMul(&rhs, &rhs, &c)
	}
	if lhs != rhs {
		return ErrVerifyFailed
	}
	return nil
}

// inRange reports whether every point is a residue in (0, P).
func inRange(points []*big.Int) bool {
	for _, p := range points {
		if p == nil || p.Sign() <= 0 || p.Cmp(groupP) >= 0 {
			return false
		}
	}
	return true
}

// AggregateCommitments multiplies per-source commitment vectors
// coefficient-wise, yielding the commitment to the SUM polynomial — so the
// reconstruction phase can verify public-point sums the same way shares are
// verified (Feldman commitments are additively homomorphic).
func AggregateCommitments(commits []*Commitment) (*Commitment, error) {
	if len(commits) == 0 {
		return nil, ErrBadCommitment
	}
	width := len(commits[0].points)
	out := &Commitment{points: make([]*big.Int, width)}
	for i := range out.points {
		out.points[i] = big.NewInt(1)
	}
	for _, c := range commits {
		if c == nil || len(c.points) != width {
			return nil, fmt.Errorf("%w: mismatched vector widths", ErrBadCommitment)
		}
		if !inRange(c.points) {
			return nil, ErrBadCommitment
		}
		for i, p := range c.points {
			out.points[i].Mul(out.points[i], p)
			out.points[i].Mod(out.points[i], groupP)
		}
	}
	return out, nil
}
