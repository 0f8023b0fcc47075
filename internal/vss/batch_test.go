package vss

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"iotmpc/internal/field"
)

// batchCase is count dealers' shares at one public point x with their
// commitments, all of degree deg.
type batchCase struct {
	x       field.Element
	values  []field.Element
	commits []*Commitment
}

func dealBatch(tb testing.TB, rng *rand.Rand, x field.Element, deg, count int) batchCase {
	tb.Helper()
	bc := batchCase{x: x}
	// Deal wants degree+1 points; every one of them is x here.
	points := slices.Repeat([]field.Element{x}, deg+1)
	for range count {
		shares, commit, err := Deal(randomNonzero(rng), deg, points, rng)
		if err != nil {
			tb.Fatal(err)
		}
		bc.values = append(bc.values, shares[0].Value)
		bc.commits = append(bc.commits, commit)
	}
	return bc
}

// product returns the product of the commitments whose index pick accepts,
// or nil if it accepts none.
func product(tb testing.TB, commits []*Commitment, pick func(int) bool) *Commitment {
	tb.Helper()
	var out *Commitment
	for i, c := range commits {
		if !pick(i) {
			continue
		}
		if out == nil {
			out = new(Commitment)
			out.Set(c)
		} else if err := out.Mul(c); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// verifyBatch checks the shares whose index missing rejects with one
// VerifySum against the product of all commitments.
func verifyBatch(tb testing.TB, bc batchCase, missing func(int) bool) error {
	tb.Helper()
	var sum field.Element
	for i, v := range bc.values {
		if !missing(i) {
			sum = sum.Add(v)
		}
	}
	all := product(tb, bc.commits, func(int) bool { return true })
	return VerifySum(sum, bc.x, all, product(tb, bc.commits, missing))
}

// verifyEach checks the same shares one Verify at a time and returns the
// first failure.
func verifyEach(bc batchCase, missing func(int) bool) error {
	for i, v := range bc.values {
		if missing(i) {
			continue
		}
		if err := Verify(Share{X: bc.x, Value: v}, bc.commits[i]); err != nil {
			return err
		}
	}
	return nil
}

// FuzzBatchMatchesPerShare checks that VerifySum rejects exactly when some
// share it covers fails Verify, for degree 1–12 and 1–30 dealers at one
// public point, with at most one tampered share value or commitment point
// (multiplied by G^r, which stays in the subgroup) and any set of dealers
// left out of the sum. A tampered dealer that is left out is checked by
// neither: its commitment divides back out of the product.
func FuzzBatchMatchesPerShare(f *testing.F) {
	f.Add(int64(1), uint64(3), uint8(6), uint8(19), uint8(0), uint8(0), uint8(0), uint32(0))
	f.Add(int64(2), uint64(7), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint32(0))
	f.Add(int64(3), uint64(27), uint8(12), uint8(30), uint8(2), uint8(29), uint8(12), uint32(0))
	f.Add(int64(4), uint64(5), uint8(6), uint8(19), uint8(1), uint8(4), uint8(0), uint32(1<<4))
	f.Add(int64(5), uint64(5), uint8(6), uint8(19), uint8(2), uint8(4), uint8(3), uint32(1<<4|1<<7))
	f.Add(int64(6), uint64(1)<<60, uint8(3), uint8(8), uint8(2), uint8(2), uint8(3), uint32(0xff))
	f.Fuzz(func(t *testing.T, seed int64, xRaw uint64, degRaw, countRaw, tamper, who, coeff uint8, missingMask uint32) {
		deg := 1 + int(degRaw)%12
		count := 1 + int(countRaw)%30
		x := field.New(1 + xRaw%(field.Modulus-1))
		rng := rand.New(rand.NewSource(seed))
		bc := dealBatch(t, rng, x, deg, count)
		j := int(who) % count
		switch tamper % 3 {
		case 1:
			bc.values[j] = bc.values[j].Add(randomNonzero(rng))
		case 2:
			c := new(Commitment)
			c.Set(bc.commits[j])
			g := gExp(randomNonzero(rng).Uint64())
			i := int(coeff) % len(c.points)
			montMul(&c.points[i], &c.points[i], &g)
			bc.commits[j] = c
		}
		missing := func(i int) bool { return missingMask>>uint(i)&1 == 1 }
		batch, each := verifyBatch(t, bc, missing), verifyEach(bc, missing)
		for _, err := range []error{batch, each} {
			if err != nil && !errors.Is(err, ErrVerifyFailed) {
				t.Fatalf("unexpected error %v", err)
			}
		}
		if (batch == nil) != (each == nil) {
			t.Fatalf("degree %d, %d dealers, tamper %d of dealer %d, missing %#x: batch = %v, per share = %v",
				deg, count, tamper%3, j, missingMask, batch, each)
		}
	})
}

// TestBatchSumCaveat pins the limit of the sum check: errors of +d and −d
// in two dealers' shares cancel in the sum, so the batch accepts shares
// that per-share verification rejects both of. Honest dealers never do
// this; a check that must name a cheating dealer has to verify share by
// share.
func TestBatchSumCaveat(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bc := dealBatch(t, rng, field.New(9), 6, 5)
	d := randomNonzero(rng)
	bc.values[1] = bc.values[1].Add(d)
	bc.values[3] = bc.values[3].Sub(d)
	none := func(int) bool { return false }
	if err := verifyBatch(t, bc, none); err != nil {
		t.Fatalf("batch rejected cancelling errors: %v", err)
	}
	for _, i := range []int{1, 3} {
		if err := Verify(Share{X: bc.x, Value: bc.values[i]}, bc.commits[i]); !errors.Is(err, ErrVerifyFailed) {
			t.Errorf("dealer %d: Verify = %v, want ErrVerifyFailed", i, err)
		}
	}
}

func TestVerifySumMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	bc := dealBatch(t, rng, field.New(3), 2, 2)
	for _, all := range []*Commitment{nil, {}} {
		if err := VerifySum(bc.values[0], bc.x, all, nil); !errors.Is(err, ErrBadCommitment) {
			t.Errorf("all = %v: %v, want ErrBadCommitment", all, err)
		}
	}
	_, wide, err := Deal(field.One, 3, shamirPoints(4), rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySum(bc.values[0], bc.x, bc.commits[0], wide); !errors.Is(err, ErrBadCommitment) {
		t.Errorf("mismatched widths: %v, want ErrBadCommitment", err)
	}
	if err := bc.commits[0].Mul(wide); !errors.Is(err, ErrBadCommitment) {
		t.Errorf("Mul of mismatched widths: %v, want ErrBadCommitment", err)
	}
	// An empty missing product divides out nothing.
	if err := VerifySum(bc.values[0], bc.x, bc.commits[0], &Commitment{}); err != nil {
		t.Errorf("empty missing product: %v", err)
	}
}

// TestDealIntoMatchesDeal checks that DealInto draws from the RNG exactly as
// Deal does, into reused buffers of any earlier size, and that a warm call
// allocates nothing.
func TestDealIntoMatchesDeal(t *testing.T) {
	points := shamirPoints(20)
	values := make([]field.Element, len(points))
	poly := make(field.Poly, 20)
	var commit Commitment
	for _, deg := range []int{6, 0, 19, 3} {
		for seed := int64(0); seed < 3; seed++ {
			secret := field.New(uint64(seed) + 77)
			rngDeal, rngInto := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			shares, want, err := Deal(secret, deg, points, rngDeal)
			if err != nil {
				t.Fatal(err)
			}
			if err := DealInto(values, &commit, secret, deg, points, rngInto, poly); err != nil {
				t.Fatal(err)
			}
			for i := range shares {
				if values[i] != shares[i].Value {
					t.Fatalf("degree %d seed %d: value %d = %v, Deal %v", deg, seed, i, values[i], shares[i].Value)
				}
			}
			if !slices.Equal(commit.points, want.points) {
				t.Fatalf("degree %d seed %d: commitment differs from Deal's", deg, seed)
			}
			if rngDeal.Int63() != rngInto.Int63() {
				t.Fatalf("degree %d seed %d: DealInto and Deal leave the RNG at different draws", deg, seed)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	if allocs := testing.AllocsPerRun(20, func() {
		if err := DealInto(values, &commit, field.One, 6, points, rng, poly); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm DealInto allocates %.0f times, want 0", allocs)
	}
	bad := map[string]error{
		"short values": DealInto(values[:3], &commit, field.One, 2, points, rng, poly),
		"short poly":   DealInto(values, &commit, field.One, 6, points, rng, poly[:6]),
		"nil commit":   DealInto(values, nil, field.One, 6, points, rng, poly),
		"degree":       DealInto(values, &commit, field.One, -1, points, rng, poly),
	}
	for name, err := range bad {
		if !errors.Is(err, ErrBadParams) {
			t.Errorf("%s: %v, want ErrBadParams", name, err)
		}
	}
}

// The batch gate's pair: one destination's 19 shares at one public point,
// degree 6, from 21 dealers of which 2 delivered nothing, checked with one
// VerifySum (BenchmarkVerifyBatch) or with 19 Verify calls
// (BenchmarkVerifyPerShare). The batch op sums the shares, multiplies the
// two missing commitments together and checks the sum, both Horner passes
// included; the product of all 21 commitments is built before the timer,
// as a caller checking many holders builds it once for all of them (20·7
// multiplies here, about as many as three Verify calls).
const benchDealers, benchMissing = 21, 2

func BenchmarkVerifyBatch(b *testing.B) {
	bc := dealBatch(b, rand.New(rand.NewSource(1)), field.New(7), 6, benchDealers)
	all := product(b, bc.commits, func(int) bool { return true })
	var missing Commitment
	b.ReportAllocs()
	for b.Loop() {
		var sum field.Element
		for _, v := range bc.values[benchMissing:] {
			sum = sum.Add(v)
		}
		missing.Set(bc.commits[0])
		for _, c := range bc.commits[1:benchMissing] {
			if err := missing.Mul(c); err != nil {
				b.Fatal(err)
			}
		}
		if err := VerifySum(sum, bc.x, all, &missing); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyPerShare(b *testing.B) {
	bc := dealBatch(b, rand.New(rand.NewSource(1)), field.New(7), 6, benchDealers)
	b.ReportAllocs()
	for b.Loop() {
		if err := verifyEach(bc, func(i int) bool { return i < benchMissing }); err != nil {
			b.Fatal(err)
		}
	}
}
