package topology

import (
	"testing"

	"iotmpc/internal/phy"
)

// Connectivity invariants of the generated layouts under an idealized
// unit-disk radio, where reachability is pure geometry: these pin the
// generators' spacing semantics (what "spacing" means in meters) rather than
// any channel model.

func unitDisk(t *testing.T, top Topology, radius float64) *phy.UnitDisk {
	t.Helper()
	u, err := phy.NewUnitDisk(phy.DefaultParams(), top.Positions, radius, 0)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestLineConnectivityUnderUnitDisk(t *testing.T) {
	const n, spacing = 8, 10.0
	line, err := Line(n, spacing)
	if err != nil {
		t.Fatal(err)
	}
	// Radius covering exactly one hop: connected with the maximal diameter a
	// connected n-node graph can have.
	diam, connected := unitDisk(t, line, spacing).LinkTable().Diameter(0.5)
	if !connected || diam != n-1 {
		t.Errorf("one-hop radius: diameter=%d connected=%v, want %d true", diam, connected, n-1)
	}
	// Radius covering two hops halves the diameter.
	diam, connected = unitDisk(t, line, 2*spacing).LinkTable().Diameter(0.5)
	if !connected || diam != (n-1+1)/2 {
		t.Errorf("two-hop radius: diameter=%d connected=%v, want %d true", diam, connected, (n-1+1)/2)
	}
	// Radius below the spacing disconnects every node from every other.
	if _, connected = unitDisk(t, line, spacing/2).LinkTable().Diameter(0.5); connected {
		t.Error("sub-spacing radius: graph reported connected")
	}
}

func TestGridConnectivityUnderUnitDisk(t *testing.T) {
	const rows, cols, spacing = 4, 6, 10.0
	grid, err := Grid(rows, cols, spacing)
	if err != nil {
		t.Fatal(err)
	}
	// Axis-aligned one-hop radius: the lattice is connected with Manhattan
	// diameter (diagonal neighbors are √2·spacing away, out of range).
	diam, connected := unitDisk(t, grid, spacing).LinkTable().Diameter(0.5)
	if want := (rows - 1) + (cols - 1); !connected || diam != want {
		t.Errorf("grid diameter=%d connected=%v, want %d true", diam, connected, want)
	}
}

func TestRandomGeometricConnectivityMonotone(t *testing.T) {
	// Connectivity under a unit disk is monotone in the radius, and a radius
	// covering the full bounding-box diagonal trivially connects any layout.
	top, err := RandomGeometric(30, 100, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	diam, connected := unitDisk(t, top, 150).LinkTable().Diameter(0.5)
	if !connected || diam != 1 {
		t.Errorf("diagonal radius: diameter=%d connected=%v, want 1 true", diam, connected)
	}
	wasConnected := false
	for _, radius := range []float64{5, 15, 30, 60, 150} {
		_, connected := unitDisk(t, top, radius).LinkTable().Diameter(0.5)
		if wasConnected && !connected {
			t.Fatalf("radius %f disconnected a layout a smaller radius connected", radius)
		}
		wasConnected = connected
	}
	if !wasConnected {
		t.Error("layout never became connected as the radius grew")
	}
}

func TestSubsetPreservesPrefixGeometry(t *testing.T) {
	// Subset(n) is the literal prefix of the parent layout — node i keeps its
	// coordinates, so hop structure among the survivors only ever improves
	// relative to routing through removed relays (never silently relabels).
	parent, err := RandomGeometric(20, 80, 80, 4)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := parent.Subset(12)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range sub.Positions {
		if p != parent.Positions[i] {
			t.Fatalf("subset node %d moved: %+v != %+v", i, p, parent.Positions[i])
		}
	}
	if n := unitDisk(t, sub, 120).NumNodes(); n != 12 {
		t.Fatalf("subset radio has %d nodes, want 12", n)
	}
}

func TestSingleRowGridMatchesLine(t *testing.T) {
	line, err := Line(7, 12)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := Grid(1, 7, 12)
	if err != nil {
		t.Fatal(err)
	}
	if grid.NumNodes() != line.NumNodes() {
		t.Fatal("degenerate grid has wrong node count")
	}
	for i := range grid.Positions {
		if grid.Positions[i] != line.Positions[i] {
			t.Errorf("node %d: grid %+v != line %+v", i, grid.Positions[i], line.Positions[i])
		}
	}
}
