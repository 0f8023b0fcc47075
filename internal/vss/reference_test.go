package vss

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"testing"

	"iotmpc/internal/field"
)

// referenceDeal and referenceVerify are Deal and Verify written directly on
// math/big, the way the package first computed them: the oracle the
// Montgomery implementation must agree with.

func referenceDeal(secret field.Element, degree int, points []field.Element, rng io.Reader) ([]Share, *Commitment, error) {
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
		commit.points[i] = new(big.Int).Exp(groupG, new(big.Int).SetUint64(coeff.Uint64()), groupP)
	}
	shares := make([]Share, len(points))
	for i, x := range points {
		shares[i] = Share{X: x, Value: poly.Eval(x)}
	}
	return shares, commit, nil
}

// referenceVerify checks G^{value} == Π points[i]^(x^i mod q) (mod P), one
// full exponentiation per coefficient.
func referenceVerify(s Share, commit *Commitment) error {
	if commit == nil || len(commit.points) == 0 {
		return ErrBadCommitment
	}
	for _, p := range commit.points {
		if p == nil || p.Sign() <= 0 || p.Cmp(groupP) >= 0 {
			return ErrBadCommitment
		}
	}
	lhs := new(big.Int).Exp(groupG, new(big.Int).SetUint64(s.Value.Uint64()), groupP)

	rhs := big.NewInt(1)
	xPow := field.One
	for _, cm := range commit.points {
		term := new(big.Int).Exp(cm, new(big.Int).SetUint64(xPow.Uint64()), groupP)
		rhs.Mul(rhs, term)
		rhs.Mod(rhs, groupP)
		xPow = xPow.Mul(s.X)
	}
	if lhs.Cmp(rhs) != 0 {
		return ErrVerifyFailed
	}
	return nil
}

// verifyBoth runs Verify and the oracle on the same input, fails the test
// unless they return the same result, and returns it.
func verifyBoth(t *testing.T, what string, s Share, c *Commitment) error {
	t.Helper()
	got, want := Verify(s, c), referenceVerify(s, c)
	if !errors.Is(got, want) {
		t.Fatalf("%s: Verify(x=%d, value=%d) = %v, reference = %v", what, s.X, s.Value, got, want)
	}
	return got
}

// randomNonzero draws a uniform nonzero field element.
func randomNonzero(rng *rand.Rand) field.Element {
	return field.New(1 + uint64(rng.Int63n(int64(field.Modulus-1))))
}

// FuzzVerifyMatchesReference drives Deal and Verify against the math/big
// oracle. Invariants: Deal returns the oracle's shares and bit-identical
// commitment points from the same RNG stream; Verify's accept/reject equals
// the oracle's on honest shares (accept), tampered share values and
// commitment points multiplied by G^r (reject), aggregated commitments with
// sum shares (accept), and — wherever every x^i is below q — on commitment
// points drawn from all of Z*_P rather than the order-q subgroup.
func FuzzVerifyMatchesReference(f *testing.F) {
	for _, deg := range []uint8{0, 1, 2, 6, 14} {
		f.Add(int64(deg), deg, false)
		f.Add(int64(deg)+100, deg, true)
	}
	q := new(big.Int).SetUint64(field.Modulus)
	f.Fuzz(func(t *testing.T, seed int64, degree uint8, bigX bool) {
		rng := rand.New(rand.NewSource(seed))
		deg := int(degree % 15)
		points := make([]field.Element, deg+1+rng.Intn(4))
		for i := range points {
			if bigX {
				points[i] = randomNonzero(rng)
			} else {
				points[i] = field.New(uint64(1 + rng.Intn(48)))
			}
		}

		const sources = 2
		commits := make([]*Commitment, sources)
		sums := make([]field.Element, len(points))
		for src := range commits {
			secret := field.New(rng.Uint64())
			dealSeed := rng.Int63()
			shares, commit, err := Deal(secret, deg, points, rand.New(rand.NewSource(dealSeed)))
			if err != nil {
				t.Fatal(err)
			}
			refShares, refCommit, err := referenceDeal(secret, deg, points, rand.New(rand.NewSource(dealSeed)))
			if err != nil {
				t.Fatal(err)
			}
			for i := range shares {
				if shares[i] != refShares[i] {
					t.Fatalf("share %d = %+v, reference %+v", i, shares[i], refShares[i])
				}
			}
			for i, p := range commit.points {
				if p.Cmp(refCommit.points[i]) != 0 {
					t.Fatalf("commitment point %d = %x, reference G^c = %x", i, p, refCommit.points[i])
				}
			}
			commits[src] = commit

			for i, sh := range shares {
				if err := verifyBoth(t, "honest share", sh, commit); err != nil {
					t.Fatalf("honest share %d rejected: %v", i, err)
				}
				bad := sh
				bad.Value = bad.Value.Add(randomNonzero(rng))
				if err := verifyBoth(t, "tampered value", bad, commit); !errors.Is(err, ErrVerifyFailed) {
					t.Fatalf("tampered value accepted: %v", err)
				}
				sums[i] = sums[i].Add(sh.Value)
			}

			// Commit to c_j + r instead of c_j: still a subgroup element,
			// and every honest share must now fail.
			j := rng.Intn(deg + 1)
			tampered := &Commitment{points: append([]*big.Int(nil), commit.points...)}
			gr := new(big.Int).Exp(groupG, new(big.Int).SetUint64(randomNonzero(rng).Uint64()), groupP)
			tampered.points[j] = gr.Mul(gr, commit.points[j]).Mod(gr, groupP)
			for _, sh := range shares {
				if err := verifyBoth(t, "tampered commitment", sh, tampered); !errors.Is(err, ErrVerifyFailed) {
					t.Fatalf("share verified against commitment point %d times G^r: %v", j, err)
				}
			}
		}

		agg, err := AggregateCommitments(commits)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range points {
			if err := verifyBoth(t, "aggregated", Share{X: x, Value: sums[i]}, agg); err != nil {
				t.Fatalf("sum share %d rejected against the aggregate: %v", i, err)
			}
		}

		// Points outside the order-q subgroup: Verify raises them to the
		// integer x^i and the oracle to x^i mod q, so the two must agree
		// only where no power reaches q (see Verify's doc).
		foreign := &Commitment{points: make([]*big.Int, deg+1)}
		for i := range foreign.points {
			foreign.points[i] = new(big.Int).Add(new(big.Int).Rand(rng, new(big.Int).Sub(groupP, big.NewInt(1))), big.NewInt(1))
		}
		for _, x := range points {
			s := Share{X: x, Value: field.New(rng.Uint64())}
			xk := new(big.Int).Exp(new(big.Int).SetUint64(x.Uint64()), big.NewInt(int64(deg)), nil)
			if xk.Cmp(q) < 0 {
				verifyBoth(t, "foreign points", s, foreign)
			} else {
				_ = Verify(s, foreign) // any answer, but no panic
			}
		}
	})
}

// TestNonSubgroupCaveat pins where Verify and the oracle part ways. The
// range check admits −1 = P−1, an element of order 2 outside the order-q
// subgroup. Multiplying C_2 by it adds a factor (−1)^(x²) to Verify's right
// side and (−1)^(x² mod q) to the oracle's. For small even x both factors
// are 1 and both accept the altered commitment (no subgroup check); for an
// even x with x² mod q odd, Verify accepts and the oracle rejects.
func TestNonSubgroupCaveat(t *testing.T) {
	x := uint64(3) << 29 // even, and q ≤ x² < 2q: x² mod q = x² − q is odd
	points := []field.Element{field.New(1), field.New(2), field.New(x)}
	shares, commit, err := Deal(field.New(7), 2, points, rand.New(rand.NewSource(25)))
	if err != nil {
		t.Fatal(err)
	}
	minusOne := new(big.Int).Sub(groupP, big.NewInt(1))
	altered := &Commitment{points: append([]*big.Int(nil), commit.points...)}
	altered.points[2] = new(big.Int).Mod(new(big.Int).Mul(commit.points[2], minusOne), groupP)

	if err := verifyBoth(t, "x = 2", shares[1], altered); err != nil {
		t.Errorf("x = 2 against C_2·(−1): %v, want accepted by both", err)
	}
	if err := verifyBoth(t, "honest, large x", shares[2], commit); err != nil {
		t.Fatalf("honest share at x=%d rejected: %v", x, err)
	}
	if got, want := Verify(shares[2], altered), referenceVerify(shares[2], altered); got != nil || !errors.Is(want, ErrVerifyFailed) {
		t.Errorf("x=%d against C_2·(−1): Verify %v, reference %v; want accepted and rejected", x, got, want)
	}
}

func BenchmarkDeal(b *testing.B) {
	points := shamirPoints(20)
	rng := rand.New(rand.NewSource(1))
	gTable() // built once per process; not part of a Deal
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := Deal(field.New(42), 6, points, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) { benchmarkVerify(b, Verify) }

func BenchmarkVerifyReference(b *testing.B) { benchmarkVerify(b, referenceVerify) }

// benchmarkVerify times one share verification at degree 6, cycling through
// the shares of 20 public points.
func benchmarkVerify(b *testing.B, verify func(Share, *Commitment) error) {
	shares, commit, err := Deal(field.New(42), 6, shamirPoints(20), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if err := verify(shares[i%len(shares)], commit); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
