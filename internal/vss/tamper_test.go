package vss

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"iotmpc/internal/field"
)

// Tamper-rejection properties beyond per-share edits: a dealer (or relay)
// that alters the published commitment vector, and an aggregator that alters
// sum shares, must both be caught — these are the attacks Feldman VSS exists
// to stop in the stronger-than-semi-honest setting.

func TestVerifyRejectsTamperedCommitmentPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	shares, commit, err := Deal(field.New(777), 3, shamirPoints(6), rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := range commit.points {
		// Multiply coefficient i's commitment by G: still a valid group
		// element, but it commits to c_i + 1 — every honest share must now
		// fail against it.
		tamperedPoints := commit.bigPoints()
		tamperedPoints[i].Mul(tamperedPoints[i], groupG)
		tamperedPoints[i].Mod(tamperedPoints[i], groupP)
		tampered, err := NewCommitment(tamperedPoints)
		if err != nil {
			t.Fatalf("coefficient %d tampered: NewCommitment: %v", i, err)
		}
		for s, sh := range shares {
			if err := Verify(sh, tampered); !errors.Is(err, ErrVerifyFailed) {
				t.Fatalf("coefficient %d tampered: share %d verified (err=%v)", i, s, err)
			}
		}
	}
}

func TestAggregateRejectsTamperedSumShare(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const degree, n, sources = 2, 5, 3
	points := shamirPoints(n)
	sums := make([]field.Element, n)
	commits := make([]*Commitment, 0, sources)
	for s := 0; s < sources; s++ {
		shares, commit, err := Deal(field.New(uint64(50+s)), degree, points, rng)
		if err != nil {
			t.Fatal(err)
		}
		commits = append(commits, commit)
		for j := range shares {
			sums[j] = sums[j].Add(shares[j].Value)
		}
	}
	agg, err := AggregateCommitments(commits)
	if err != nil {
		t.Fatal(err)
	}
	// Honest sum shares pass; a one-off edit to any of them fails.
	for j := 0; j < n; j++ {
		good := Share{X: points[j], Value: sums[j]}
		if err := Verify(good, agg); err != nil {
			t.Fatalf("honest sum share %d rejected: %v", j, err)
		}
		bad := good
		bad.Value = bad.Value.Add(field.One)
		if err := Verify(bad, agg); !errors.Is(err, ErrVerifyFailed) {
			t.Errorf("tampered sum share %d verified (err=%v)", j, err)
		}
	}
}

func TestDegreeZeroRoundTrip(t *testing.T) {
	// A constant polynomial: every share carries the secret itself and the
	// single commitment point is the secret commitment.
	rng := rand.New(rand.NewSource(22))
	secret := field.New(31337)
	shares, commit, err := Deal(secret, 0, shamirPoints(4), rng)
	if err != nil {
		t.Fatal(err)
	}
	if commit.Degree() != 0 {
		t.Fatalf("degree = %d, want 0", commit.Degree())
	}
	want := new(big.Int).Exp(groupG, new(big.Int).SetUint64(secret.Uint64()), groupP)
	if commit.SecretCommitment().Cmp(want) != 0 {
		t.Error("secret commitment is not G^secret")
	}
	for i, s := range shares {
		if s.Value != secret {
			t.Errorf("share %d value %v, want the secret %v", i, s.Value, secret)
		}
		if err := Verify(s, commit); err != nil {
			t.Errorf("share %d: %v", i, err)
		}
	}
}

func TestAggregateSingleCommitmentIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shares, commit, err := Deal(field.New(9), 2, shamirPoints(4), rng)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := AggregateCommitments([]*Commitment{commit})
	if err != nil {
		t.Fatal(err)
	}
	for i := range agg.points {
		if agg.points[i] != commit.points[i] {
			t.Fatalf("point %d changed under single-element aggregation", i)
		}
	}
	for i, s := range shares {
		if err := Verify(s, agg); err != nil {
			t.Errorf("share %d failed against aggregated self: %v", i, err)
		}
	}
}

func TestDealIsDeterministicPerRNG(t *testing.T) {
	// The core lane path re-deals per trial on derived RNG streams; identical
	// streams must yield identical shares AND identical commitment vectors.
	points := shamirPoints(5)
	sharesA, commitA, err := Deal(field.New(5), 2, points, rand.New(rand.NewSource(24)))
	if err != nil {
		t.Fatal(err)
	}
	sharesB, commitB, err := Deal(field.New(5), 2, points, rand.New(rand.NewSource(24)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sharesA {
		if sharesA[i] != sharesB[i] {
			t.Fatalf("share %d differs across identical RNG streams", i)
		}
	}
	for i := range commitA.points {
		if commitA.points[i] != commitB.points[i] {
			t.Fatalf("commitment point %d differs across identical RNG streams", i)
		}
	}
}
