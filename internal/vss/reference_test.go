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
// Montgomery implementation must agree with. The oracle holds a commitment
// as its plain points.

// bigPoints returns c's points out of Montgomery form.
func (c *Commitment) bigPoints() []*big.Int {
	out := make([]*big.Int, len(c.points))
	for i := range c.points {
		out[i] = montToBig(&c.points[i])
	}
	return out
}

func referenceDeal(secret field.Element, degree int, points []field.Element, rng io.Reader) ([]Share, []*big.Int, error) {
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
	commit := make([]*big.Int, len(poly))
	for i, coeff := range poly {
		commit[i] = new(big.Int).Exp(groupG, new(big.Int).SetUint64(coeff.Uint64()), groupP)
	}
	shares := make([]Share, len(points))
	for i, x := range points {
		shares[i] = Share{X: x, Value: poly.Eval(x)}
	}
	return shares, commit, nil
}

// referenceVerify checks G^{value} == Π points[i]^(x^i mod q) (mod P), one
// full exponentiation per coefficient.
func referenceVerify(s Share, commit []*big.Int) error {
	if len(commit) == 0 {
		return ErrBadCommitment
	}
	for _, p := range commit {
		if p == nil || p.Sign() <= 0 || p.Cmp(groupP) >= 0 {
			return ErrBadCommitment
		}
	}
	lhs := new(big.Int).Exp(groupG, new(big.Int).SetUint64(s.Value.Uint64()), groupP)

	rhs := big.NewInt(1)
	xPow := field.One
	for _, cm := range commit {
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
	got, want := Verify(s, c), referenceVerify(s, c.bigPoints())
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
// commitment points multiplied by G^r, brought in through NewCommitment
// (reject), and aggregated commitments with sum shares (accept); and
// NewCommitment rejects points drawn from all of Z*_P rather than the
// order-q subgroup with ErrNotInSubgroup.
func FuzzVerifyMatchesReference(f *testing.F) {
	for _, deg := range []uint8{0, 1, 2, 6, 14} {
		f.Add(int64(deg), deg, false)
		f.Add(int64(deg)+100, deg, true)
	}
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
			for i, p := range commit.bigPoints() {
				if p.Cmp(refCommit[i]) != 0 {
					t.Fatalf("commitment point %d = %x, reference G^c = %x", i, p, refCommit[i])
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
			tamperedPoints := commit.bigPoints()
			gr := new(big.Int).Exp(groupG, new(big.Int).SetUint64(randomNonzero(rng).Uint64()), groupP)
			tamperedPoints[j] = gr.Mul(gr, tamperedPoints[j]).Mod(gr, groupP)
			tampered, err := NewCommitment(tamperedPoints)
			if err != nil {
				t.Fatalf("NewCommitment rejected C_%d·G^r: %v", j, err)
			}
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

		// Points drawn from all of Z*_P lie outside the order-q subgroup
		// (but for a chance of 2⁻⁴⁵⁰), so NewCommitment must refuse them.
		foreign := make([]*big.Int, deg+1)
		for i := range foreign {
			foreign[i] = new(big.Int).Add(new(big.Int).Rand(rng, new(big.Int).Sub(groupP, big.NewInt(1))), big.NewInt(1))
		}
		if c, err := NewCommitment(foreign); !errors.Is(err, ErrNotInSubgroup) || !errors.Is(err, ErrBadCommitment) || c != nil {
			t.Fatalf("NewCommitment(foreign points) = %v, %v; want ErrNotInSubgroup", c, err)
		}
	})
}

// TestNonSubgroupCaveat covers the one place Verify and the oracle would
// part ways. Verify raises points to the integer x^i and the oracle to
// x^i mod q, which agree only on the order-q subgroup. −1 = P−1 is in
// (0, P) but has order 2: multiplying C_2 by it adds a factor (−1)^(x²) to
// Verify's right side and (−1)^(x² mod q) to the oracle's, and for an even
// x with x² mod q odd Verify would accept what the oracle rejects.
// NewCommitment refuses such a vector, so no Commitment can hold it.
func TestNonSubgroupCaveat(t *testing.T) {
	x := uint64(3) << 29 // even, and q ≤ x² < 2q: x² mod q = x² − q is odd
	points := []field.Element{field.New(1), field.New(2), field.New(x)}
	shares, commit, err := Deal(field.New(7), 2, points, rand.New(rand.NewSource(25)))
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyBoth(t, "honest, large x", shares[2], commit); err != nil {
		t.Fatalf("honest share at x=%d rejected: %v", x, err)
	}
	minusOne := new(big.Int).Sub(groupP, big.NewInt(1))
	altered := commit.bigPoints()
	altered[2] = new(big.Int).Mod(new(big.Int).Mul(altered[2], minusOne), groupP)
	for _, pts := range [][]*big.Int{altered, {minusOne}} {
		if c, err := NewCommitment(pts); !errors.Is(err, ErrNotInSubgroup) || !errors.Is(err, ErrBadCommitment) || c != nil {
			t.Errorf("NewCommitment with a point of order 2 = %v, %v; want ErrNotInSubgroup", c, err)
		}
	}
}

// TestDealMatchesReferenceDeal checks that Deal's commitment points, read
// back through SecretCommitment and bigPoints, are bit-identical to the
// oracle's G^c, and its shares equal, from the same RNG stream.
func TestDealMatchesReferenceDeal(t *testing.T) {
	points := shamirPoints(20)
	for _, deg := range []int{0, 1, 6, 19} {
		for seed := int64(0); seed < 4; seed++ {
			secret := field.New(uint64(seed) * 0x9e3779b97f4a7c15)
			shares, commit, err := Deal(secret, deg, points, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			refShares, refCommit, err := referenceDeal(secret, deg, points, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			for i := range shares {
				if shares[i] != refShares[i] {
					t.Fatalf("degree %d seed %d: share %d = %+v, reference %+v", deg, seed, i, shares[i], refShares[i])
				}
			}
			if got := commit.SecretCommitment(); got.Cmp(refCommit[0]) != 0 {
				t.Fatalf("degree %d seed %d: SecretCommitment = %x, reference %x", deg, seed, got, refCommit[0])
			}
			got := commit.bigPoints()
			if len(got) != len(refCommit) {
				t.Fatalf("degree %d seed %d: %d points, reference %d", deg, seed, len(got), len(refCommit))
			}
			for i := range got {
				if got[i].Cmp(refCommit[i]) != 0 {
					t.Fatalf("degree %d seed %d: point %d = %x, reference %x", deg, seed, i, got[i], refCommit[i])
				}
			}
		}
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

func BenchmarkVerify(b *testing.B) {
	shares, commit := benchDeal(b)
	benchmarkVerify(b, shares, func(s Share) error { return Verify(s, commit) })
}

func BenchmarkVerifyReference(b *testing.B) {
	shares, commit := benchDeal(b)
	points := commit.bigPoints()
	benchmarkVerify(b, shares, func(s Share) error { return referenceVerify(s, points) })
}

// benchDeal deals the secret 42 at degree 6 over 20 public points.
func benchDeal(b *testing.B) ([]Share, *Commitment) {
	shares, commit, err := Deal(field.New(42), 6, shamirPoints(20), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return shares, commit
}

// benchmarkVerify times one share verification, cycling through the shares.
func benchmarkVerify(b *testing.B, shares []Share, verify func(Share) error) {
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if err := verify(shares[i%len(shares)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
