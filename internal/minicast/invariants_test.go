package minicast

import (
	"math/rand"
	"testing"
	"time"

	"iotmpc/internal/phy"
	"iotmpc/internal/topology"
)

// runOn runs an all-to-all round on the given topology/seed.
func runOn(t *testing.T, top topology.Topology, ntx int, seed int64) *Result {
	t.Helper()
	ch, err := top.Channel(phy.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunArena(Config{
		Channel:      ch,
		Initiator:    0,
		NTX:          ntx,
		Items:        allToAllItems(ch.NumNodes()),
		PayloadBytes: 20,
	}, rand.New(rand.NewSource(seed)), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestInvariantHaveIffRxAt: possession and timestamps must agree.
func TestInvariantHaveIffRxAt(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		res := runOn(t, topology.FlockLab(), 4, seed)
		for node := range res.Have {
			for item := range res.Have[node] {
				has := res.Have[node][item]
				stamped := res.RxAt[node][item] >= 0
				if has != stamped {
					t.Fatalf("seed %d node %d item %d: Have=%v but RxAt=%v",
						seed, node, item, has, res.RxAt[node][item])
				}
			}
		}
	}
}

// TestInvariantRxAtWithinDuration: no reception after the round ends.
func TestInvariantRxAtWithinDuration(t *testing.T) {
	res := runOn(t, topology.FlockLab(), 6, 1)
	for node := range res.RxAt {
		for item, at := range res.RxAt[node] {
			if at > res.Duration {
				t.Fatalf("node %d item %d received at %v after round end %v",
					node, item, at, res.Duration)
			}
		}
	}
}

// TestInvariantCoverageMonotoneInNTX: with the same channel, more waves can
// only help (on average across seeds).
func TestInvariantCoverageMonotoneInNTX(t *testing.T) {
	mean := func(ntx int) float64 {
		total := 0.0
		const trials = 8
		for seed := int64(0); seed < trials; seed++ {
			total += runOn(t, topology.FlockLab(), ntx, seed).MeanCoverage()
		}
		return total / trials
	}
	prev := 0.0
	for _, ntx := range []int{1, 2, 4, 8} {
		cov := mean(ntx)
		if cov+0.02 < prev { // small tolerance for Monte-Carlo noise
			t.Fatalf("coverage decreased at NTX=%d: %.3f < %.3f", ntx, cov, prev)
		}
		prev = cov
	}
}

// TestInvariantOneHopPerWave: an item cannot outrun the TDMA schedule — a
// node at graph distance d from the owner cannot hold the item before wave
// d-1 (waves are 0-indexed; the owner's level transmits once per wave).
func TestInvariantOneHopPerWave(t *testing.T) {
	p := phy.DefaultParams()
	p.ShadowingSigmaDB = 0
	p.FadingSigmaDB = 1
	top, err := topology.Line(7, 35)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := top.Channel(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunArena(Config{
		Channel:      ch,
		Initiator:    0,
		NTX:          10,
		Items:        allToAllItems(7),
		PayloadBytes: 20,
	}, rand.New(rand.NewSource(3)), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	waveLen := res.PhaseLen * time.Duration(res.Levels)
	// Item owned by node 6; node 0 is 6 hops away. It cannot arrive before
	// wave 5 starts (5 full waves of inward movement).
	if at := res.RxAt[0][6]; at >= 0 && at < 5*waveLen {
		t.Errorf("item traveled 6 hops by %v (< 5 waves of %v): schedule violated", at, waveLen)
	}
}
