package vss

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"iotmpc/internal/field"
)

// FuzzExponentMatchesGroup checks the exponent form against the group form
// for degree 0–12 at 1–24 public points and one more point x anywhere in
// the field, zero included. Dealing with DealExponents and lifting must
// give DealInto's commitment and values from the same RNG seed, leaving the
// RNG at the same draw. Verify and VerifyExponents must then return the
// same verdict on the share at x, untampered, with +r on its value, or with
// +r on one coefficient and ×G^r on the matching point, and every tamper
// must be rejected.
func FuzzExponentMatchesGroup(f *testing.F) {
	f.Add(int64(1), uint64(3), uint8(6), uint8(20), uint8(0), uint8(0))
	f.Add(int64(2), uint64(0), uint8(0), uint8(1), uint8(1), uint8(0))
	f.Add(int64(3), uint64(field.Modulus-1), uint8(12), uint8(24), uint8(2), uint8(12))
	f.Add(int64(4), uint64(7), uint8(6), uint8(20), uint8(2), uint8(0))
	f.Add(int64(5), uint64(1)<<60, uint8(3), uint8(4), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, xRaw uint64, degRaw, countRaw, tamper, coeff uint8) {
		deg := int(degRaw) % 13
		count := deg + 1 + int(countRaw)%12
		points := shamirPoints(count)
		secret := field.New(uint64(seed))

		values := make([]field.Element, count)
		var group Commitment
		rngGroup := rand.New(rand.NewSource(seed))
		if err := DealInto(values, &group, secret, deg, points, rngGroup, make(field.Poly, deg+1)); err != nil {
			t.Fatal(err)
		}
		expValues := make([]field.Element, count)
		coeffs := make(field.Poly, deg+1)
		rngExp := rand.New(rand.NewSource(seed))
		if err := DealExponents(expValues, coeffs, secret, deg, points, rngExp); err != nil {
			t.Fatal(err)
		}
		var lifted Commitment
		lifted.Lift(coeffs)
		if !slices.Equal(values, expValues) || !slices.Equal(lifted.points, group.points) {
			t.Fatalf("seed %d degree %d: lifted exponent deal differs from DealInto", seed, deg)
		}
		if rngGroup.Int63() != rngExp.Int63() {
			t.Fatalf("seed %d degree %d: the two deals leave the RNG at different draws", seed, deg)
		}

		x := field.New(xRaw)
		share := Share{X: x, Value: coeffs.Eval(x)}
		rng := rand.New(rand.NewSource(^seed))
		switch tamper % 3 {
		case 1:
			share.Value = share.Value.Add(randomNonzero(rng))
		case 2:
			r := randomNonzero(rng)
			i := int(coeff) % len(coeffs)
			coeffs[i] = coeffs[i].Add(r)
			g := gExp(r.Uint64())
			montMul(&group.points[i], &group.points[i], &g)
		}
		// +r on coefficient i moves the value at x by r·x^i, which is zero
		// only for i > 0 at x = 0.
		wantFail := tamper%3 == 1 || tamper%3 == 2 && !(x.IsZero() && int(coeff)%len(coeffs) > 0)
		groupErr, expErr := Verify(share, &group), VerifyExponents(share, coeffs)
		for _, err := range []error{groupErr, expErr} {
			if err != nil && !errors.Is(err, ErrVerifyFailed) {
				t.Fatalf("unexpected error %v", err)
			}
		}
		if (groupErr == nil) != (expErr == nil) || (expErr != nil) != wantFail {
			t.Fatalf("degree %d, x %v, tamper %d of coefficient %d: group = %v, exponent = %v, want failure %v",
				deg, x, tamper%3, int(coeff)%len(coeffs), groupErr, expErr, wantFail)
		}
	})
}

func TestVerifyExponentsMalformed(t *testing.T) {
	for _, coeffs := range []field.Poly{nil, {}} {
		if err := VerifyExponents(Share{X: field.One}, coeffs); !errors.Is(err, ErrBadCommitment) {
			t.Errorf("coeffs %v: %v, want ErrBadCommitment", coeffs, err)
		}
	}
	points := shamirPoints(4)
	values := make([]field.Element, len(points))
	rng := rand.New(rand.NewSource(1))
	bad := map[string]error{
		"short values": DealExponents(values[:2], make(field.Poly, 3), field.One, 2, points, rng),
		"short coeffs": DealExponents(values, make(field.Poly, 2), field.One, 2, points, rng),
		"degree":       DealExponents(values, make(field.Poly, 3), field.One, -1, points, rng),
		"few points":   DealExponents(values, make(field.Poly, 5), field.One, 4, points, rng),
		"zero point":   DealExponents(values, make(field.Poly, 3), field.One, 2, []field.Element{1, 0, 2, 3}, rng),
	}
	for name, err := range bad {
		if !errors.Is(err, ErrBadParams) {
			t.Errorf("%s: %v, want ErrBadParams", name, err)
		}
	}
}
