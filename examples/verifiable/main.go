// Verifiable sharing: hardening the paper's semi-honest model. With Feldman
// commitments riding the sharing chain, a destination can verify every share
// it decrypts before absorbing it into its public-point sum — a malicious
// source can no longer silently poison the aggregate. The commitments are
// additively homomorphic, so even the SUMS re-shared in the reconstruction
// phase remain verifiable.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"iotmpc/internal/field"
	"iotmpc/internal/shamir"
	"iotmpc/internal/vss"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	rng := rand.New(rand.NewSource(7))
	const nodes, degree, sources = 10, 3, 4
	points := shamir.PublicPoints(nodes)

	fmt.Fprintf(w, "%d nodes, degree %d, %d sources dealing verifiably\n\n", nodes, degree, sources)

	sums := make([]field.Element, nodes)
	commits := make([]*vss.Commitment, 0, sources)
	var total field.Element
	for s := 0; s < sources; s++ {
		secret := field.New(uint64(100 * (s + 1)))
		total = total.Add(secret)
		shares, commit, err := vss.Deal(secret, degree, points, rng)
		if err != nil {
			return err
		}
		commits = append(commits, commit)

		// Every destination verifies before absorbing.
		for j, share := range shares {
			if err := vss.Verify(share, commit); err != nil {
				return fmt.Errorf("source %d share %d rejected: %w", s, j, err)
			}
			sums[j] = sums[j].Add(share.Value)
		}
		fmt.Fprintf(w, "source %d: %d shares dealt and verified (+%dB commitments on the chain)\n",
			s, nodes, commit.Bytes())
	}

	// A malicious source tries to slip in a corrupted share.
	evilShares, evilCommit, err := vss.Deal(field.New(666), degree, points, rng)
	if err != nil {
		return err
	}
	forged := evilShares[2]
	forged.Value = forged.Value.Add(field.One) // off-polynomial by 1
	if err := vss.Verify(forged, evilCommit); errors.Is(err, vss.ErrVerifyFailed) {
		fmt.Fprintln(w, "\nforged share detected and rejected ✓")
	} else {
		return fmt.Errorf("forged share slipped through: %v", err)
	}

	// Reconstruction-phase verification: sums check out against the
	// aggregated commitment, then reconstruct.
	aggCommit, err := vss.AggregateCommitments(commits)
	if err != nil {
		return err
	}
	for j := 0; j < degree+1; j++ {
		if err := vss.Verify(vss.Share{X: points[j], Value: sums[j]}, aggCommit); err != nil {
			return fmt.Errorf("sum %d failed aggregated verification: %w", j, err)
		}
	}
	sumShares := make([]shamir.Share, degree+1)
	for j := range sumShares {
		sumShares[j] = shamir.Share{X: points[j], Value: sums[j]}
	}
	got, err := shamir.Reconstruct(sumShares, degree)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "verified aggregate: %v (expected %v) ✓\n", got, total)
	return nil
}
