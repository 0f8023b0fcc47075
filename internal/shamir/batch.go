package shamir

import (
	"fmt"
	"io"

	"iotmpc/internal/field"
)

// Vectorized sharing. IoT nodes rarely report a single scalar: a reading is
// a vector (temperature, humidity, CO₂, …) or a whole window of samples.
// Sharing m secrets toward n points naively runs the scalar pipeline m times;
// the entry points here move whole vectors through the batched field layer
// instead, and reconstruction reuses one cached Lagrange basis for every
// coordinate — one inversion for the entire vector instead of one per entry.

// ShareVector is the evaluation of m independent sharing polynomials at one
// public point: Values[k] = P_k(X). It is the vector analogue of Share and
// aggregates the same way (element-wise sums stay on the sum polynomials).
type ShareVector struct {
	X      field.Element
	Values []field.Element
}

// SplitVec shares a vector of secrets toward the given public points, one
// fresh random polynomial per secret. The result holds one ShareVector per
// point: out[j].Values[k] is point j's share of secrets[k]. An empty secret
// vector is valid and yields empty ShareVectors — absent readings aggregate
// as zero downstream.
func SplitVec(secrets []field.Element, degree int, points []field.Element, rng io.Reader) ([]ShareVector, error) {
	m := len(secrets)
	flat := make([]field.Element, len(points)*m)
	if err := SplitVecInto(flat, secrets, degree, points, rng, make(field.Poly, max(degree+1, 0))); err != nil {
		return nil, err
	}
	out := make([]ShareVector, len(points))
	for j, x := range points {
		out[j] = ShareVector{X: x, Values: flat[j*m : (j+1)*m : (j+1)*m]}
	}
	return out, nil
}

// SplitVecInto is SplitVec into caller-owned memory: dst (length
// len(points)·len(secrets)) receives point j's share of secrets[k] at
// dst[j·len(secrets)+k], and poly (at least degree+1 elements) holds each
// sampled polynomial in turn. It draws from rng exactly as SplitVec does
// whatever the points, so a caller that ships only some shares evaluates
// only those points.
func SplitVecInto(dst, secrets []field.Element, degree int, points []field.Element, rng io.Reader, poly field.Poly) error {
	if degree < 0 {
		return fmt.Errorf("%w: negative degree %d", ErrBadParams, degree)
	}
	if len(points) < degree+1 {
		return fmt.Errorf("%w: %d points for degree %d (need >= %d)",
			ErrBadParams, len(points), degree, degree+1)
	}
	for _, x := range points {
		if x.IsZero() {
			return fmt.Errorf("%w: public point 0 would leak the secret", ErrBadParams)
		}
	}
	m := len(secrets)
	if len(dst) != len(points)*m || len(poly) < degree+1 {
		return fmt.Errorf("%w: %d-element destination and %d-coefficient scratch for %d points, %d secrets, degree %d",
			ErrBadParams, len(dst), len(poly), len(points), m, degree)
	}
	poly = poly[:degree+1]
	for k, secret := range secrets {
		if err := poly.Randomize(secret, rng); err != nil {
			return fmt.Errorf("sample polynomial %d: %w", k, err)
		}
		for j, x := range points {
			dst[j*m+k] = poly.Eval(x)
		}
	}
	return nil
}

// ReconstructVec recovers the full secret vector from at least degree+1
// share vectors. The Lagrange basis for the point set is fetched from the
// process-wide coefficient cache once and applied to every coordinate via
// fused multiply-accumulate, so the per-coordinate cost is len(shares)
// multiplications — no inversions on the warm path.
func ReconstructVec(shares []ShareVector, degree int) ([]field.Element, error) {
	var width int
	if len(shares) > 0 {
		width = len(shares[0].Values)
	}
	secrets := make([]field.Element, width)
	if err := ReconstructVecInto(secrets, shares, degree); err != nil {
		return nil, err
	}
	return secrets, nil
}

// maxStackPoints is the largest reconstruction whose point list lives on
// the stack; networks here have at most a few dozen nodes.
const maxStackPoints = 64

// ReconstructVecInto is ReconstructVec into caller-owned memory: it writes
// the secret vector to dst, whose length is the width every share vector
// must have. On a warm coefficient cache it allocates nothing for up to
// maxStackPoints shares.
func ReconstructVecInto(dst []field.Element, shares []ShareVector, degree int) error {
	if degree < 0 {
		return fmt.Errorf("%w: negative degree %d", ErrBadParams, degree)
	}
	need := degree + 1
	if len(shares) < need {
		return fmt.Errorf("%w: have %d, need %d", ErrThreshold, len(shares), need)
	}
	shares = shares[:need]
	var stack [maxStackPoints]field.Element
	xs := stack[:0]
	for i, sv := range shares {
		if len(sv.Values) != len(dst) {
			return fmt.Errorf("%w: share vector %d has %d values, expected %d",
				ErrBadParams, i, len(sv.Values), len(dst))
		}
		xs = append(xs, sv.X)
	}
	coeffs, err := field.CachedCoefficientsAtZero(xs)
	if err != nil {
		return fmt.Errorf("lagrange basis: %w", err)
	}
	clear(dst)
	for i, sv := range shares {
		if err := field.MulAccVec(dst, coeffs[i], sv.Values); err != nil {
			return err
		}
	}
	return nil
}

// AggregateShareVectors sums share vectors bound to the same public point —
// the vector form of AggregateShares a destination runs during local
// aggregation. All inputs must have the same width.
func AggregateShareVectors(vecs []ShareVector) (ShareVector, error) {
	if len(vecs) == 0 {
		return ShareVector{}, fmt.Errorf("%w: empty aggregation", ErrBadParams)
	}
	x := vecs[0].X
	sum := make([]field.Element, len(vecs[0].Values))
	for _, v := range vecs {
		if v.X != x {
			return ShareVector{}, fmt.Errorf("%w: %v vs %v", ErrMixedPoints, v.X, x)
		}
		if err := field.AccumulateVec(sum, v.Values); err != nil {
			return ShareVector{}, err
		}
	}
	return ShareVector{X: x, Values: sum}, nil
}
