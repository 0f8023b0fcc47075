package glossy

import (
	"math/rand"
	"testing"

	"iotmpc/internal/phy"
	"iotmpc/internal/topology"
)

// Property tests over the idealized unit-disk backend: with certain
// reception and no ambient loss, flooding is fully deterministic, so the
// assertions are exact — 100% coverage on connected topologies, zero
// receptions across disconnected components, and first-reception slots that
// equal hop distances. No tolerance bands.

// floodOverDisk builds a hard unit disk over the topology and floods from
// node 0.
func floodOverDisk(t *testing.T, tb topology.Topology, radius float64, ntx int) (*phy.UnitDisk, *Result) {
	t.Helper()
	u, err := phy.NewUnitDisk(phy.IdealParams(), tb.Positions, radius, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunArena(Config{
		Channel:      u,
		Initiator:    0,
		NTX:          ntx,
		PayloadBytes: 16,
	}, rand.New(rand.NewSource(1)), nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return u, res
}

// assertExactFlood checks the deterministic flood invariants: node i
// received iff it is graph-reachable from the initiator, and a node at hop
// distance d first receives in slot d-1 (the initiator transmits in slot 0).
func assertExactFlood(t *testing.T, u *phy.UnitDisk, res *Result) {
	t.Helper()
	for i, d := range u.LinkTable().HopDistances(0, 0.5) {
		if reachable := d >= 0; res.Received[i] != reachable {
			t.Fatalf("node %d (hop %d): Received=%v, want %v", i, d, res.Received[i], reachable)
		}
		switch {
		case i == 0:
			if res.FirstRxSlot[i] != 0 {
				t.Fatalf("initiator FirstRxSlot %d", res.FirstRxSlot[i])
			}
		case d < 0:
			if res.FirstRxSlot[i] != -1 || res.Latency[i] != -1 {
				t.Fatalf("unreachable node %d has rx slot %d latency %v",
					i, res.FirstRxSlot[i], res.Latency[i])
			}
		default:
			if res.FirstRxSlot[i] != d-1 {
				t.Fatalf("node %d at hop %d first received in slot %d, want %d",
					i, d, res.FirstRxSlot[i], d-1)
			}
		}
	}
}

func TestUnitDiskFloodConnectedExactCoverage(t *testing.T) {
	// Random geometric deployments across seeds; every reachable node must
	// be covered exactly, for any NTX >= 1 (the ideal channel never loses
	// the first relay opportunity).
	for seed := int64(1); seed <= 8; seed++ {
		tb, err := topology.RandomGeometric(20, 120, 90, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, ntx := range []int{1, 3} {
			u, res := floodOverDisk(t, tb, 45, ntx)
			assertExactFlood(t, u, res)
			if _, connected := u.LinkTable().Diameter(0.5); connected && res.Coverage() != 1 {
				t.Fatalf("seed %d ntx %d: connected topology covered %v, want exactly 1",
					seed, ntx, res.Coverage())
			}
		}
	}
}

func TestUnitDiskFloodLineExactSlots(t *testing.T) {
	// A 12-node line with adjacent-only links: node i receives exactly in
	// slot i-1 and the flood covers everyone.
	tb, err := topology.Line(12, 10)
	if err != nil {
		t.Fatal(err)
	}
	u, res := floodOverDisk(t, tb, 12, 2)
	assertExactFlood(t, u, res)
	if res.Coverage() != 1 {
		t.Fatalf("line coverage %v, want exactly 1", res.Coverage())
	}
}

func TestUnitDiskFloodDisconnectedNeverReceives(t *testing.T) {
	// Two 5-node clusters 1 km apart: the far cluster must never receive,
	// in any of several runs with different RNG seeds and NTX budgets.
	pos := make([]phy.Position, 0, 10)
	for i := 0; i < 5; i++ {
		pos = append(pos, phy.Position{X: float64(i) * 10})
	}
	for i := 0; i < 5; i++ {
		pos = append(pos, phy.Position{X: 1000 + float64(i)*10})
	}
	u, err := phy.NewUnitDisk(phy.IdealParams(), pos, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		for _, ntx := range []int{1, 4} {
			res, err := RunArena(Config{
				Channel:      u,
				Initiator:    0,
				NTX:          ntx,
				PayloadBytes: 16,
			}, rand.New(rand.NewSource(seed)), nil, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if !res.Received[i] {
					t.Fatalf("seed %d ntx %d: near-cluster node %d missed", seed, ntx, i)
				}
			}
			for i := 5; i < 10; i++ {
				if res.Received[i] {
					t.Fatalf("seed %d ntx %d: far-cluster node %d received across the gap",
						seed, ntx, i)
				}
			}
		}
	}
}

// TestUnitDiskFloodGrayZoneStaysDeterministicAtCore verifies that adding a
// gray zone only adds reception (never removes it): every node covered by
// the hard disk is still covered, exactly.
func TestUnitDiskFloodGrayZoneStaysDeterministicAtCore(t *testing.T) {
	tb, err := topology.Line(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	hard, hardRes := floodOverDisk(t, tb, 12, 2)
	assertExactFlood(t, hard, hardRes)
	gray, err := phy.NewUnitDisk(phy.IdealParams(), tb.Positions, 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	grayRes, err := RunArena(Config{
		Channel:      gray,
		Initiator:    0,
		NTX:          2,
		PayloadBytes: 16,
	}, rand.New(rand.NewSource(7)), nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range hardRes.Received {
		if got && !grayRes.Received[i] {
			t.Fatalf("node %d covered by hard disk but not with gray zone", i)
		}
	}
}
