package trace

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"iotmpc/internal/phy"
)

func triChannel(t *testing.T) *Channel {
	t.Helper()
	tr, err := ParseCSV([]byte(validCSV))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(phy.DefaultParams(), tr)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestChannelReplaysPRR(t *testing.T) {
	ch := triChannel(t)
	if n := ch.NumNodes(); n != 3 {
		t.Fatalf("NumNodes %d", n)
	}
	for _, tc := range []struct {
		tx, rx int
		want   float64
	}{{0, 1, 0.9}, {1, 0, 0.8}, {0, 2, 0.25}, {2, 0, 0}, {1, 1, 0}} {
		if prr := ch.LinkTable().PRR(tc.tx, tc.rx); prr != tc.want {
			t.Fatalf("PRR(%d,%d) = %v, want %v", tc.tx, tc.rx, prr, tc.want)
		}
	}
}

func TestChannelCertainOutcomesConsumeNoRandomness(t *testing.T) {
	tr, err := ParseCSV([]byte("nodes,3\n0,1,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(phy.DefaultParams(), tr)
	if err != nil {
		t.Fatal(err)
	}
	// PRR 1 and PRR 0 links decide without touching the (nil) RNG.
	table := ch.LinkTable()
	if !table.ReceiveSingle(0, 1, nil) {
		t.Fatal("certain link failed")
	}
	if table.ReceiveSingle(1, 2, nil) {
		t.Fatal("absent link delivered")
	}
	if !table.ReceiveConcurrentFast(1, []int{0, 2}, nil) {
		t.Fatal("union with a certain link failed")
	}
}

func TestChannelUnionReception(t *testing.T) {
	// Two 0.5 links to node 1: union probability 0.75. Check the empirical
	// rate of the Bernoulli draw against the exact union probability.
	tr, err := ParseJSON([]byte(`{"nodes":3,"links":[
		{"tx":0,"rx":1,"prr":0.5},{"tx":2,"rx":1,"prr":0.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(phy.DefaultParams(), tr)
	if err != nil {
		t.Fatal(err)
	}
	table := ch.LinkTable()
	rng := rand.New(rand.NewSource(11))
	const trials = 20000
	got := 0
	for i := 0; i < trials; i++ {
		if table.ReceiveConcurrentFast(1, []int{0, 2}, rng) {
			got++
		}
	}
	rate := float64(got) / trials
	if math.Abs(rate-0.75) > 0.02 {
		t.Fatalf("union reception rate %v, want ≈0.75", rate)
	}
}

func TestFactoryEnforcesNodeCount(t *testing.T) {
	tr, err := Bundled("line5")
	if err != nil {
		t.Fatal(err)
	}
	factory := Factory(tr)
	if _, err := factory(phy.DefaultParams(), make([]phy.Position, 5), 1); err != nil {
		t.Fatalf("matching node count: %v", err)
	}
	if _, err := factory(phy.DefaultParams(), make([]phy.Position, 8), 1); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("mismatched node count: %v", err)
	}
}

// TestChannelDeterministicReplay runs the same reception sequence twice
// with identical RNG seeds: a trace backend must be bit-reproducible.
func TestChannelDeterministicReplay(t *testing.T) {
	tr, err := Bundled("testbed10")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(phy.DefaultParams(), tr)
	if err != nil {
		t.Fatal(err)
	}
	table := ch.LinkTable()
	run := func() []bool {
		rng := rand.New(rand.NewSource(42))
		var out []bool
		for rx := 0; rx < ch.NumNodes(); rx++ {
			for tx := 0; tx < ch.NumNodes(); tx++ {
				if tx != rx {
					out = append(out, table.ReceiveSingle(tx, rx, rng))
				}
			}
			out = append(out, table.ReceiveConcurrentFast(rx, []int{(rx + 1) % ch.NumNodes()}, rng))
		}
		return out
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("trace replay diverged across identical runs")
	}
}

// TestChannelGraphQueries drives the table's graph queries over the trace
// backend: the bundled line5 trace is a line at threshold 0.5.
func TestChannelGraphQueries(t *testing.T) {
	tr, err := Bundled("line5")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(phy.DefaultParams(), tr)
	if err != nil {
		t.Fatal(err)
	}
	table := ch.LinkTable()
	for i, d := range table.HopDistances(0, 0.5) {
		if d != i {
			t.Fatalf("hop distance of node %d = %d, want %d", i, d, i)
		}
	}
	if diam, connected := table.Diameter(0.5); !connected || diam != 4 {
		t.Fatalf("diameter %d connected=%v, want 4 true", diam, connected)
	}
}

func TestNewChannelValidation(t *testing.T) {
	if _, err := NewChannel(phy.DefaultParams(), nil); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("nil trace: %v", err)
	}
	bad := phy.DefaultParams()
	bad.BitrateBps = 0
	tr, _ := ParseCSV([]byte("nodes,2\n0,1,1\n"))
	if _, err := NewChannel(bad, tr); !errors.Is(err, phy.ErrBadParams) {
		t.Fatalf("bad params: %v", err)
	}
	// Hand-built ragged matrices must be rejected, not panic later.
	ragged := &LinkTrace{Nodes: 3, PRR: [][]float64{{0, 1}, {0, 0, 1}, {1, 0, 0}}}
	if _, err := NewChannel(phy.DefaultParams(), ragged); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("ragged trace: %v", err)
	}
}
