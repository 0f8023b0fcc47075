package minicast

import (
	"math/rand"
	"testing"

	"iotmpc/internal/phy"
	"iotmpc/internal/topology"
)

// TestUnitDiskAllToAllExactAtDiameterWaves pins the wave-propagation
// invariant on the idealized backend: with certain reception, an item
// spreads exactly one radio hop per wave, so an all-to-all chain reaches
// full coverage — exactly — after diameter waves, and a line topology is
// NOT fully covered one wave earlier (items from one end cannot have
// reached the other).
func TestUnitDiskAllToAllExactAtDiameterWaves(t *testing.T) {
	tb, err := topology.Line(7, 10)
	if err != nil {
		t.Fatal(err)
	}
	u, err := phy.NewUnitDisk(phy.IdealParams(), tb.Positions, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	diam, connected := u.LinkTable().Diameter(0.5)
	if !connected {
		t.Fatalf("diameter %d disconnected", diam)
	}
	items := make([]Item, u.NumNodes())
	for i := range items {
		items[i] = Item{Owner: i, Dst: -1}
	}
	run := func(ntx int) *Result {
		res, err := RunArena(Config{
			Channel:      u,
			Initiator:    0,
			NTX:          ntx,
			Items:        items,
			PayloadBytes: 16,
		}, rand.New(rand.NewSource(1)), nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if cov := run(diam).MeanCoverage(); cov != 1 {
		t.Fatalf("NTX=diameter=%d coverage %v, want exactly 1", diam, cov)
	}
	if cov := run(diam - 1).MeanCoverage(); cov >= 1 {
		t.Fatalf("NTX=%d (diameter-1) coverage %v, want < 1 on a line", diam-1, cov)
	}
}
