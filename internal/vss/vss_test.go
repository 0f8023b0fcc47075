package vss

import (
	"errors"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"iotmpc/internal/field"
	"iotmpc/internal/shamir"
)

func TestGroupParameters(t *testing.T) {
	// P must be prime, G must generate an order-q subgroup for q = 2^61-1.
	if !groupP.ProbablyPrime(40) {
		t.Fatal("P is not prime")
	}
	q := new(big.Int).SetUint64(field.Modulus)
	one := big.NewInt(1)
	if new(big.Int).Exp(groupG, q, groupP).Cmp(one) != 0 {
		t.Fatal("G^q != 1: generator order wrong")
	}
	if groupG.Cmp(one) == 0 {
		t.Fatal("G is trivial")
	}
	// P = k·q + 1 exactly.
	pm1 := new(big.Int).Sub(groupP, one)
	if new(big.Int).Mod(pm1, q).Sign() != 0 {
		t.Fatal("q does not divide P-1")
	}
}

func TestDealVerifyAllShares(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	points := shamirPoints(8)
	shares, commit, err := Deal(field.New(123456), 3, points, rng)
	if err != nil {
		t.Fatal(err)
	}
	if commit.Degree() != 3 {
		t.Errorf("commitment degree = %d, want 3", commit.Degree())
	}
	for i, s := range shares {
		if err := Verify(s, commit); err != nil {
			t.Errorf("share %d failed verification: %v", i, err)
		}
	}
}

func TestVerifyRejectsTamperedShare(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shares, commit, err := Deal(field.New(42), 2, shamirPoints(5), rng)
	if err != nil {
		t.Fatal(err)
	}
	bad := shares[0]
	bad.Value = bad.Value.Add(field.One)
	if err := Verify(bad, commit); !errors.Is(err, ErrVerifyFailed) {
		t.Errorf("tampered value: %v, want ErrVerifyFailed", err)
	}
	swapped := shares[0]
	swapped.X = shares[1].X // right value, wrong point
	if err := Verify(swapped, commit); !errors.Is(err, ErrVerifyFailed) {
		t.Errorf("swapped point: %v, want ErrVerifyFailed", err)
	}
}

func TestVerifyRejectsForeignCommitment(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sharesA, _, err := Deal(field.New(1), 2, shamirPoints(5), rng)
	if err != nil {
		t.Fatal(err)
	}
	_, commitB, err := Deal(field.New(2), 2, shamirPoints(5), rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sharesA[0], commitB); !errors.Is(err, ErrVerifyFailed) {
		t.Errorf("foreign commitment: %v, want ErrVerifyFailed", err)
	}
}

func TestVerifyMalformedCommitment(t *testing.T) {
	if err := Verify(Share{}, nil); !errors.Is(err, ErrBadCommitment) {
		t.Errorf("nil: %v, want ErrBadCommitment", err)
	}
	if err := Verify(Share{}, &Commitment{}); !errors.Is(err, ErrBadCommitment) {
		t.Errorf("empty: %v, want ErrBadCommitment", err)
	}
	malformed := map[string][]*big.Int{
		"no points":    nil,
		"nil point":    {nil},
		"zero element": {big.NewInt(0)},
		"out of range": {new(big.Int).Add(groupP, big.NewInt(1))},
		"P itself":     {groupP},
	}
	for name, points := range malformed {
		c, err := NewCommitment(points)
		if !errors.Is(err, ErrBadCommitment) || errors.Is(err, ErrNotInSubgroup) || c != nil {
			t.Errorf("%s: NewCommitment = %v, %v; want ErrBadCommitment for the range", name, c, err)
		}
	}
}

// TestNewCommitmentRoundTrip checks that a dealt commitment, sent as plain
// points and brought back through NewCommitment, is the same vector.
func TestNewCommitmentRoundTrip(t *testing.T) {
	shares, commit, err := Deal(field.New(5150), 4, shamirPoints(7), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewCommitment(commit.bigPoints())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.points, commit.points) {
		t.Fatal("commitment changed across NewCommitment")
	}
	for i, s := range shares {
		if err := Verify(s, got); err != nil {
			t.Errorf("share %d against the received commitment: %v", i, err)
		}
	}
}

func TestDealParamErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, _, err := Deal(field.One, -1, shamirPoints(3), rng); !errors.Is(err, ErrBadParams) {
		t.Errorf("negative degree: %v", err)
	}
	if _, _, err := Deal(field.One, 5, shamirPoints(3), rng); !errors.Is(err, ErrBadParams) {
		t.Errorf("too few points: %v", err)
	}
	zero := []field.Element{field.Zero, field.One}
	if _, _, err := Deal(field.One, 1, zero, rng); !errors.Is(err, ErrBadParams) {
		t.Errorf("zero point: %v", err)
	}
}

func TestAggregateCommitmentsVerifySums(t *testing.T) {
	// The PPDA flow with verification: every source deals verifiably; a
	// destination sums its shares; the sum share must verify against the
	// aggregated commitment vector (Feldman homomorphism).
	rng := rand.New(rand.NewSource(5))
	const degree, n, sources = 2, 6, 4
	points := shamirPoints(n)

	sums := make([]field.Element, n)
	commits := make([]*Commitment, 0, sources)
	var total field.Element
	for s := 0; s < sources; s++ {
		secret := field.New(uint64(1000 + s))
		total = total.Add(secret)
		shares, commit, err := Deal(secret, degree, points, rng)
		if err != nil {
			t.Fatal(err)
		}
		commits = append(commits, commit)
		for j := range shares {
			sums[j] = sums[j].Add(shares[j].Value)
		}
	}
	aggCommit, err := AggregateCommitments(commits)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		sumShare := Share{X: points[j], Value: sums[j]}
		if err := Verify(sumShare, aggCommit); err != nil {
			t.Errorf("sum share %d failed aggregated verification: %v", j, err)
		}
	}
	// The aggregated secret commitment matches G^total.
	want := new(big.Int).Exp(groupG, new(big.Int).SetUint64(total.Uint64()), groupP)
	if aggCommit.SecretCommitment().Cmp(want) != 0 {
		t.Error("aggregated secret commitment mismatch")
	}
}

func TestAggregateCommitmentsErrors(t *testing.T) {
	if _, err := AggregateCommitments(nil); !errors.Is(err, ErrBadCommitment) {
		t.Errorf("empty: %v", err)
	}
	rng := rand.New(rand.NewSource(6))
	_, c2, err := Deal(field.One, 2, shamirPoints(4), rng)
	if err != nil {
		t.Fatal(err)
	}
	_, c3, err := Deal(field.One, 3, shamirPoints(5), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AggregateCommitments([]*Commitment{c2, c3}); !errors.Is(err, ErrBadCommitment) {
		t.Errorf("width mismatch: %v", err)
	}
	for _, commits := range [][]*Commitment{{nil, c2}, {c2, nil}} {
		if _, err := AggregateCommitments(commits); !errors.Is(err, ErrBadCommitment) {
			t.Errorf("nil commitment: %v", err)
		}
	}
}

func TestCommitmentBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	_, commit, err := Deal(field.One, 8, shamirPoints(10), rng)
	if err != nil {
		t.Fatal(err)
	}
	// 9 coefficients × 64 bytes (512-bit group elements).
	if got := commit.Bytes(); got != 9*64 {
		t.Errorf("Bytes = %d, want %d", got, 9*64)
	}
}

func TestVSSSharesInteropWithShamir(t *testing.T) {
	// VSS shares are plain Shamir shares: reconstruction works unchanged.
	rng := rand.New(rand.NewSource(8))
	secret := field.New(987654)
	const degree = 3
	points := shamirPoints(8)
	shares, _, err := Deal(secret, degree, points, rng)
	if err != nil {
		t.Fatal(err)
	}
	converted := make([]shamir.Share, degree+1)
	for i := range converted {
		converted[i] = shamir.Share{X: shares[i].X, Value: shares[i].Value}
	}
	got, err := shamir.Reconstruct(converted, degree)
	if err != nil {
		t.Fatal(err)
	}
	if got != secret {
		t.Errorf("reconstructed %v, want %v", got, secret)
	}
}

func shamirPoints(n int) []field.Element {
	return shamir.PublicPoints(n)
}
