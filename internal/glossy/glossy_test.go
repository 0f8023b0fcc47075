package glossy

import (
	"errors"
	"math/rand"
	"testing"

	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
	"iotmpc/internal/topology"
)

func flockChannel(t *testing.T) *phy.LogDistance {
	t.Helper()
	ch, err := topology.FlockLab().Channel(phy.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestFloodReachesWholeNetworkAtHighNTX(t *testing.T) {
	ch := flockChannel(t)
	cfg := Config{Channel: ch, Initiator: 0, NTX: 8, PayloadBytes: 16}
	rng := rand.New(rand.NewSource(1))
	covered := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		res, err := RunArena(cfg, rng, nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Coverage() == 1 {
			covered++
		}
	}
	if covered < trials*9/10 {
		t.Errorf("full coverage in %d/%d trials, want >= 90%%", covered, trials)
	}
}

func TestFloodLatencyGrowsWithHops(t *testing.T) {
	// On a line, first-reception latency must be monotone in hop distance
	// (averaged over trials).
	p := phy.DefaultParams()
	p.ShadowingSigmaDB = 0
	p.FadingSigmaDB = 1
	top, err := topology.Line(6, 35)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := top.Channel(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Channel: ch, Initiator: 0, NTX: 6, PayloadBytes: 16}
	rng := rand.New(rand.NewSource(2))
	sum := make([]float64, 6)
	const trials = 200
	for i := 0; i < trials; i++ {
		res, err := RunArena(cfg, rng, nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j, lat := range res.Latency {
			if lat < 0 {
				t.Fatalf("trial %d: node %d unreachable", i, j)
			}
			sum[j] += lat.Seconds()
		}
	}
	for j := 2; j < 6; j++ {
		if sum[j] <= sum[j-1] {
			t.Errorf("mean latency not increasing along line: node %d %.6f <= node %d %.6f",
				j, sum[j]/trials, j-1, sum[j-1]/trials)
		}
	}
}

func TestCoverageGrowsWithNTX(t *testing.T) {
	ch := flockChannel(t)
	coverage := func(ntx int) float64 {
		rng := rand.New(rand.NewSource(3))
		total := 0.0
		const trials = 100
		for i := 0; i < trials; i++ {
			res, err := RunArena(Config{Channel: ch, Initiator: 0, NTX: ntx, PayloadBytes: 16}, rng, nil, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Coverage()
		}
		return total / trials
	}
	c1 := coverage(1)
	c4 := coverage(4)
	if c4 < c1 {
		t.Errorf("coverage decreased with NTX: NTX=1 %.3f, NTX=4 %.3f", c1, c4)
	}
	if c4 < 0.95 {
		t.Errorf("NTX=4 coverage = %.3f, want near-full on FlockLab", c4)
	}
}

func TestFloodAccountsRadioTime(t *testing.T) {
	ch := flockChannel(t)
	ledger := sim.NewRadioLedger(ch.NumNodes())
	engine := sim.NewEngine()
	rng := rand.New(rand.NewSource(4))
	res, err := RunArena(Config{Channel: ch, Initiator: 0, NTX: 4, PayloadBytes: 16}, rng, ledger, engine, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if engine.Now() != res.Duration {
		t.Errorf("engine clock %v, want flood duration %v", engine.Now(), res.Duration)
	}
	if ledger.TxTime(0) == 0 {
		t.Error("initiator has zero tx time")
	}
	for i := 0; i < ch.NumNodes(); i++ {
		if ledger.OnTime(i) == 0 {
			t.Errorf("node %d has zero radio-on time", i)
		}
		if ledger.OnTime(i) > res.Duration {
			t.Errorf("node %d on-time %v exceeds flood duration %v", i, ledger.OnTime(i), res.Duration)
		}
	}
}

func TestFloodDeterministicGivenSeed(t *testing.T) {
	ch := flockChannel(t)
	run := func() *Result {
		rng := rand.New(rand.NewSource(42))
		res, err := RunArena(Config{Channel: ch, Initiator: 0, NTX: 3, PayloadBytes: 16}, rng, nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Slots != b.Slots {
		t.Fatalf("same seed, different slot counts: %d vs %d", a.Slots, b.Slots)
	}
	for i := range a.FirstRxSlot {
		if a.FirstRxSlot[i] != b.FirstRxSlot[i] {
			t.Fatalf("same seed, node %d differs", i)
		}
	}
}

func TestFloodTerminates(t *testing.T) {
	// Even with an unreachable node the flood must terminate once every
	// reached node exhausts NTX.
	p := phy.DefaultParams()
	p.ShadowingSigmaDB = 0
	ch, err := phy.NewLogDistance(p, []phy.Position{{X: 0}, {X: 10}, {X: 100000}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	res, err := RunArena(Config{Channel: ch, Initiator: 0, NTX: 3, PayloadBytes: 16}, rng, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Received[2] {
		t.Error("unreachable node received")
	}
	if res.Latency[2] != -1 {
		t.Error("unreachable node has latency")
	}
	if res.Slots >= 4*3*3 {
		t.Errorf("flood hit the safety bound: %d slots", res.Slots)
	}
}

func TestConfigValidation(t *testing.T) {
	ch := flockChannel(t)
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name string
		cfg  Config
	}{
		{"nil channel", Config{Initiator: 0, NTX: 1}},
		{"bad initiator", Config{Channel: ch, Initiator: -1, NTX: 1}},
		{"initiator out of range", Config{Channel: ch, Initiator: 99, NTX: 1}},
		{"zero ntx", Config{Channel: ch, Initiator: 0, NTX: 0}},
		{"payload too big", Config{Channel: ch, Initiator: 0, NTX: 1, PayloadBytes: 200}},
		{"negative max slots", Config{Channel: ch, Initiator: 0, NTX: 1, MaxSlots: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := RunArena(tt.cfg, rng, nil, nil, nil, nil); !errors.Is(err, ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestResultInitiator(t *testing.T) {
	ch := flockChannel(t)
	rng := rand.New(rand.NewSource(6))
	res, err := RunArena(Config{Channel: ch, Initiator: 3, NTX: 2, PayloadBytes: 8}, rng, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Initiator() != 3 {
		t.Errorf("Initiator = %d, want 3", res.Initiator())
	}
	if !res.Received[3] || res.Latency[3] != 0 {
		t.Error("initiator must hold the packet at time zero")
	}
}
