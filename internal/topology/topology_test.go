package topology

import (
	"errors"
	"testing"

	"iotmpc/internal/phy"
)

func TestFlockLabShape(t *testing.T) {
	fl := FlockLab()
	if fl.NumNodes() != 26 {
		t.Fatalf("FlockLab has %d nodes, want 26", fl.NumNodes())
	}
	ch, err := fl.Channel(phy.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	diam, connected := ch.LinkTable().Diameter(0.8)
	if !connected {
		t.Fatal("FlockLab model disconnected at PRR 0.8")
	}
	if diam < 3 || diam > 6 {
		t.Errorf("FlockLab diameter = %d, want 3..6 (multi-hop office scale)", diam)
	}
}

func TestDCubeShape(t *testing.T) {
	dc := DCube()
	if dc.NumNodes() != 45 {
		t.Fatalf("DCube has %d nodes, want 45", dc.NumNodes())
	}
	ch, err := dc.Channel(phy.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	diam, connected := ch.LinkTable().Diameter(0.8)
	if !connected {
		t.Fatal("DCube model disconnected at PRR 0.8")
	}
	if diam < 4 || diam > 9 {
		t.Errorf("DCube diameter = %d, want 4..9 (deeper than FlockLab)", diam)
	}
}

func TestDCubeDeeperThanFlockLab(t *testing.T) {
	p := phy.DefaultParams()
	flCh, err := FlockLab().Channel(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	dcCh, err := DCube().Channel(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	flDiam, _ := flCh.LinkTable().Diameter(0.8)
	dcDiam, _ := dcCh.LinkTable().Diameter(0.8)
	if dcDiam <= flDiam {
		t.Errorf("DCube diameter %d <= FlockLab %d; want deeper network", dcDiam, flDiam)
	}
}

func TestLine(t *testing.T) {
	l, err := Line(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumNodes() != 5 {
		t.Fatalf("nodes = %d", l.NumNodes())
	}
	if l.Positions[4].X != 40 {
		t.Errorf("last position X = %f, want 40", l.Positions[4].X)
	}
	if _, err := Line(0, 10); !errors.Is(err, ErrBadSize) {
		t.Errorf("Line(0): %v, want ErrBadSize", err)
	}
	if _, err := Line(5, -1); !errors.Is(err, ErrBadSize) {
		t.Errorf("Line(-spacing): %v, want ErrBadSize", err)
	}
}

func TestGrid(t *testing.T) {
	g, err := Grid(3, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 12 {
		t.Fatalf("nodes = %d, want 12", g.NumNodes())
	}
	if g.Positions[11] != (phy.Position{X: 30, Y: 20}) {
		t.Errorf("corner = %+v", g.Positions[11])
	}
	if _, err := Grid(0, 1, 1); !errors.Is(err, ErrBadSize) {
		t.Errorf("Grid(0): %v, want ErrBadSize", err)
	}
}

func TestRandomGeometricDeterministic(t *testing.T) {
	a, err := RandomGeometric(10, 100, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomGeometric(10, 100, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatal("same seed produced different layouts")
		}
	}
	c, err := RandomGeometric(10, 100, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Positions {
		if a.Positions[i] != c.Positions[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical layouts")
	}
	if _, err := RandomGeometric(0, 1, 1, 1); !errors.Is(err, ErrBadSize) {
		t.Errorf("n=0: %v, want ErrBadSize", err)
	}
}

func TestRandomGeometricInBounds(t *testing.T) {
	top, err := RandomGeometric(50, 80, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range top.Positions {
		if p.X < 0 || p.X > 80 || p.Y < 0 || p.Y > 40 {
			t.Errorf("node %d out of bounds: %+v", i, p)
		}
	}
}

func TestSubset(t *testing.T) {
	fl := FlockLab()
	sub, err := fl.Subset(10)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumNodes() != 10 {
		t.Fatalf("subset nodes = %d", sub.NumNodes())
	}
	// Mutating the subset must not affect the original.
	sub.Positions[0] = phy.Position{X: -1}
	if fl.Positions[0].X == -1 {
		t.Error("Subset aliases parent positions")
	}
	if _, err := fl.Subset(0); !errors.Is(err, ErrBadSize) {
		t.Errorf("Subset(0): %v, want ErrBadSize", err)
	}
	if _, err := fl.Subset(27); !errors.Is(err, ErrBadSize) {
		t.Errorf("Subset(27): %v, want ErrBadSize", err)
	}
}

func TestChannelError(t *testing.T) {
	bad := phy.DefaultParams()
	bad.BitrateBps = 0
	if _, err := FlockLab().Channel(bad, 1); err == nil {
		t.Error("want error for invalid params")
	}
}
