package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"iotmpc/internal/field"
	"iotmpc/internal/minicast"
	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
	"iotmpc/internal/topology"
	"iotmpc/internal/vss"
)

// TestVerifiableCountsGolden pins what a change of verification path must
// not move: VerifiedShares, UnverifiedShares and NodeOK of verifiable
// rounds, which the JSONL rows do not carry. The golden was recorded when
// every share was verified on its own in the group. The grid and the low
// S4 NTX lose enough shares and commitments that the counts differ from
// trial to trial; node 19 is crashed and no source.
func TestVerifiableCountsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "verifiable_counts.golden"))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := topology.Grid(4, 5, 16)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, proto := range []Protocol{S3, S4} {
		for _, vecLen := range []int{0, 4} {
			for _, loss := range []float64{0.1, 0.3} {
				cfg := Config{
					Topology:    grid,
					PHY:         phy.DefaultParams(),
					Protocol:    proto,
					Sources:     sourcesUpTo(19),
					NTXSharing:  3,
					DestSlack:   2,
					ChannelSeed: 1,
					Failed:      make([]bool, 20),
					Verifiable:  true,
					VectorLen:   vecLen,
				}
				cfg.PHY.InterferenceBurstProb = loss
				cfg.Failed[19] = true
				results, err := RunRoundLanes(bootFor(t, cfg), 0, 8)
				if err != nil {
					t.Fatal(err)
				}
				for trial, res := range results {
					ok := make([]byte, len(res.NodeOK))
					for i, v := range res.NodeOK {
						ok[i] = '0'
						if v {
							ok[i] = '1'
						}
					}
					fmt.Fprintf(&got, "%v L=%d loss=%.1f trial=%d verified=%d unverified=%d ok=%s\n",
						proto, vecLen, loss, trial, res.VerifiedShares, res.UnverifiedShares, ok)
				}
			}
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("verification counts differ from the golden:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// preparedRound deals trial 3 of a verifiable FlockLab round at vector
// length vecLen and returns it ready for the chains.
func preparedRound(t *testing.T, proto Protocol, vecLen int) (*Bootstrap, *sharePrep) {
	t.Helper()
	cfg := flockConfig(proto)
	cfg.Verifiable = true
	cfg.VectorLen = vecLen
	boot := bootFor(t, cfg)
	prep := &sharePrep{radioRNG: sim.NewRNG(0, 0)}
	if err := prep.prepare(boot, boot.cfg, 3, sim.NewRNG(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	return boot, prep
}

// TestVerifiableRoundTamperedCommitment replaces source 5's commitment to
// its last coordinate with another dealer's, planted in the exponent form.
// The round must return the error that per-share verification in the group
// returned, naming the same share (the texts were recorded then).
func TestVerifiableRoundTamperedCommitment(t *testing.T) {
	for _, tc := range []struct {
		proto  Protocol
		vecLen int
		want   string
	}{
		{S3, 0, "verify share 125[0]: vss: share verification failed"},
		{S4, 0, "verify share 45[0]: vss: share verification failed"},
		{S3, 4, "verify share 125[3]: vss: share verification failed"},
		{S4, 4, "verify share 45[3]: vss: share verification failed"},
	} {
		boot, prep := preparedRound(t, tc.proto, tc.vecLen)
		values := make([]field.Element, len(boot.destPoints))
		vecLen := boot.cfg.effVectorLen()
		foreign := prep.commit(5, vecLen-1)
		if err := vss.DealExponents(values, foreign, field.One, boot.cfg.Degree, boot.destPoints, rand.New(rand.NewSource(7))); err != nil {
			t.Fatal(err)
		}
		_, err := runPrepared(boot, boot.cfg, 3, prep, nil, new(sim.Arena))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%v L=%d: error %v, want %q", tc.proto, tc.vecLen, err, tc.want)
		}
	}
}

// TestVerifiableRoundCancellingDealers adds +d to the secret coefficient of
// one S4 source's commitment and −d to another's, both outside the
// destination set. Every destination that received both dealers' shares
// then holds errors that cancel in its share sum, so a sum check over the
// sum passes (vss's TestBatchSumCaveat). But every share either dealer sent
// disagrees with its own commitment, so the round must fail on the first of
// them in share order.
func TestVerifiableRoundCancellingDealers(t *testing.T) {
	for _, vecLen := range []int{0, 4} {
		boot, prep := preparedRound(t, S4, vecLen)
		var cheats []int
		for _, src := range boot.cfg.Sources {
			if len(cheats) < 2 && !slices.Contains(boot.dests, src) {
				cheats = append(cheats, src)
			}
		}
		d := field.New(0xc0ffee)
		for k := range boot.cfg.effVectorLen() {
			ca, cb := prep.commit(cheats[0], k), prep.commit(cheats[1], k)
			ca[0], cb[0] = ca[0].Add(d), cb[0].Sub(d)
		}
		first := slices.IndexFunc(boot.shareItems, func(item minicast.Item) bool {
			return slices.Contains(cheats, item.Owner)
		})
		want := fmt.Sprintf("verify share %d[0]: vss: share verification failed", first)
		_, err := runPrepared(boot, boot.cfg, 3, prep, nil, new(sim.Arena))
		if err == nil || err.Error() != want {
			t.Errorf("L=%d, dealers %v: error %v, want %q", vecLen, cheats, err, want)
		}
	}
}
