package phy

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// lineDisk builds an n-node line with the given spacing wrapped in a hard
// unit disk of the given radius.
func lineDisk(t *testing.T, n int, spacing, radius, gray float64) *UnitDisk {
	t.Helper()
	pos := make([]Position, n)
	for i := range pos {
		pos[i] = Position{X: float64(i) * spacing}
	}
	u, err := NewUnitDisk(IdealParams(), pos, radius, gray)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestUnitDiskPRRExact(t *testing.T) {
	// Spacing 10, radius 15: only adjacent nodes are connected, exactly.
	table := lineDisk(t, 5, 10, 15, 0).LinkTable()
	for tx := 0; tx < 5; tx++ {
		for rx := 0; rx < 5; rx++ {
			prr := table.PRR(tx, rx)
			want := 0.0
			if tx != rx && abs(tx-rx) == 1 {
				want = 1.0
			}
			if prr != want {
				t.Fatalf("PRR(%d,%d) = %v, want %v", tx, rx, prr, want)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestUnitDiskGrayZoneRamp(t *testing.T) {
	// Radius 10, gray 10: distance 10 → 1, 15 → 0.5, 20+ → 0.
	pos := []Position{{X: 0}, {X: 10}, {X: 15}, {X: 20}, {X: 25}}
	u, err := NewUnitDisk(IdealParams(), pos, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	table := u.LinkTable()
	for i, want := range map[int]float64{1: 1, 2: 0.5, 3: 0, 4: 0} {
		prr := table.PRR(0, i)
		if math.Abs(prr-want) > 1e-12 {
			t.Fatalf("PRR(0,%d) = %v, want %v", i, prr, want)
		}
	}
	// The ramp is monotone non-increasing in distance.
	prev := 1.1
	for d := 0.0; d <= 25; d += 0.5 {
		u2, err := NewUnitDisk(IdealParams(), []Position{{}, {X: d}}, 10, 10)
		if err != nil {
			t.Fatal(err)
		}
		prr := u2.LinkTable().PRR(0, 1)
		if prr > prev {
			t.Fatalf("PRR not monotone at distance %v: %v > %v", d, prr, prev)
		}
		prev = prr
	}
}

func TestUnitDiskSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pos := make([]Position, 12)
	for i := range pos {
		pos[i] = Position{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	u, err := NewUnitDisk(IdealParams(), pos, 30, 10)
	if err != nil {
		t.Fatal(err)
	}
	table := u.LinkTable()
	for i := range pos {
		for j := range pos {
			if a, b := table.PRR(i, j), table.PRR(j, i); a != b {
				t.Fatalf("asymmetric PRR(%d,%d)=%v vs %v", i, j, a, b)
			}
		}
	}
}

// TestUnitDiskHardDiskConsumesNoRandomness passes a nil RNG: every certain
// outcome (PRR 0 or 1) must be decided without a draw, so a hard disk is
// fully deterministic.
func TestUnitDiskHardDiskConsumesNoRandomness(t *testing.T) {
	table := lineDisk(t, 4, 10, 15, 0).LinkTable()
	if !table.ReceiveSingle(0, 1, nil) {
		t.Fatal("in-range single reception failed")
	}
	if table.ReceiveSingle(0, 3, nil) {
		t.Fatal("out-of-range single reception succeeded")
	}
	if !table.ReceiveConcurrentFast(2, []int{1, 3}, nil) {
		t.Fatal("concurrent in-range reception failed")
	}
	if table.ReceiveConcurrentFast(0, []int{2, 3}, nil) {
		t.Fatal("concurrent out-of-range reception succeeded")
	}
}

func TestUnitDiskGraphQueries(t *testing.T) {
	// Adjacent-only line: hop distance from 0 is exactly the index.
	table := lineDisk(t, 6, 10, 15, 0).LinkTable()
	for i, d := range table.HopDistances(0, 0.5) {
		if d != i {
			t.Fatalf("hop distance of node %d = %d, want %d", i, d, i)
		}
	}
	if diam, connected := table.Diameter(0.5); !connected || diam != 5 {
		t.Fatalf("diameter %d connected=%v, want 5 true", diam, connected)
	}
	// Split the line: the diameter spans only the components.
	table = lineDisk(t, 6, 10, 5, 0).LinkTable()
	if diam, connected := table.Diameter(0.5); connected || diam != 0 {
		t.Fatalf("isolated nodes: diameter %d connected=%v, want 0 false", diam, connected)
	}
}

func TestUnitDiskValidation(t *testing.T) {
	pos := []Position{{}, {X: 1}}
	if _, err := NewUnitDisk(IdealParams(), nil, 10, 0); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("no nodes: %v", err)
	}
	if _, err := NewUnitDisk(IdealParams(), pos, 0, 0); !errors.Is(err, ErrBadParams) {
		t.Fatalf("zero radius: %v", err)
	}
	if _, err := NewUnitDisk(IdealParams(), pos, -5, 0); !errors.Is(err, ErrBadParams) {
		t.Fatalf("negative radius: %v", err)
	}
	if _, err := NewUnitDisk(IdealParams(), pos, 10, -1); !errors.Is(err, ErrBadParams) {
		t.Fatalf("negative gray width: %v", err)
	}
}

func TestUnitDiskFactoryDerivesRadius(t *testing.T) {
	params := IdealParams()
	want := UnitDiskRadius(params)
	if want <= 0 {
		t.Fatalf("derived radius %v", want)
	}
	r, err := UnitDiskFactory(0, 0)(params, []Position{{}, {X: want / 2}}, 99)
	if err != nil {
		t.Fatal(err)
	}
	u := r.(*UnitDisk)
	if u.Radius() != want {
		t.Fatalf("factory radius %v, want derived %v", u.Radius(), want)
	}
	// The derived radius is where the log-distance mean RSSI crosses the
	// 50%-PRR midpoint.
	rssi := params.TxPowerDBm - params.RefLossDB -
		10*params.PathLossExponent*math.Log10(want)
	if math.Abs(rssi-params.PRRMidpointDBm) > 1e-9 {
		t.Fatalf("RSSI at derived radius = %v, want midpoint %v", rssi, params.PRRMidpointDBm)
	}
}

// TestRadioConformance exercises shared LinkTable semantics across the phy
// backends: self-reception never succeeds, transmitting nodes cannot
// receive, and the PRR diagonal is 0.
func TestRadioConformance(t *testing.T) {
	pos := []Position{{X: 0}, {X: 10}, {X: 20}}
	ld, err := NewLogDistance(DefaultParams(), pos, 1)
	if err != nil {
		t.Fatal(err)
	}
	ud, err := NewUnitDisk(IdealParams(), pos, 15, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]Radio{"logdist": ld, "unitdisk": ud} {
		rng := rand.New(rand.NewSource(3))
		table := r.LinkTable()
		if n := r.NumNodes(); n != 3 || table.NumNodes() != 3 {
			t.Fatalf("%s: NumNodes %d, table %d", name, n, table.NumNodes())
		}
		if prr := table.PRR(1, 1); prr != 0 {
			t.Fatalf("%s: self PRR %v", name, prr)
		}
		if table.ReceiveSingle(1, 1, rng) {
			t.Fatalf("%s: node received itself", name)
		}
		if table.ReceiveConcurrentFast(1, []int{1, 0}, rng) {
			t.Fatalf("%s: transmitter received its own slot", name)
		}
		if table.ReceiveConcurrentFast(0, nil, rng) {
			t.Fatalf("%s: reception with no transmitters", name)
		}
	}
}
