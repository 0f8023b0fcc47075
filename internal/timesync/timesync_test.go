package timesync

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"iotmpc/internal/phy"
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

func baseConfig(ch *phy.LogDistance) Config {
	return Config{
		Channel:        ch,
		Initiator:      0,
		NTX:            6,
		ResyncInterval: time.Second,
		Rounds:         10,
	}
}

func TestSyncKeepsErrorWithinGuard(t *testing.T) {
	// The load-bearing claim: with per-round resync at CT-round cadence,
	// sync error stays below the TDMA guard interval, so the slot-
	// synchronous MiniCast abstraction is sound.
	ch := flockChannel(t)
	cfg := baseConfig(ch)
	rep, err := Simulate(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Samples) != 10 {
		t.Fatalf("samples = %d", len(rep.Samples))
	}
	if !rep.WithinGuard() {
		t.Errorf("worst sync error %v exceeds guard %v", rep.WorstError(), rep.GuardInterval)
	}
	for _, s := range rep.Samples {
		if s.Unsynced > 2 {
			t.Errorf("round %d: %d nodes never synced", s.Round, s.Unsynced)
		}
	}
}

func TestErrorGrowsWithResyncInterval(t *testing.T) {
	ch := flockChannel(t)
	worst := func(interval time.Duration) time.Duration {
		cfg := baseConfig(ch)
		cfg.ResyncInterval = interval
		rep, err := Simulate(cfg, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		return rep.WorstError()
	}
	short := worst(time.Second)
	long := worst(30 * time.Second)
	if long <= short {
		t.Errorf("30s interval error %v not above 1s error %v", long, short)
	}
}

func TestDriftCompensationHelps(t *testing.T) {
	ch := flockChannel(t)
	run := func(compensate bool) time.Duration {
		cfg := baseConfig(ch)
		cfg.ResyncInterval = 30 * time.Second
		cfg.Rounds = 20
		cfg.DriftCompensation = compensate
		rep, err := Simulate(cfg, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		// Judge by the tail (after estimates converge).
		var worstTail time.Duration
		for _, s := range rep.Samples[5:] {
			if s.MaxAbsError > worstTail {
				worstTail = s.MaxAbsError
			}
		}
		return worstTail
	}
	raw := run(false)
	comp := run(true)
	if comp >= raw {
		t.Errorf("drift compensation did not help: with=%v without=%v", comp, raw)
	}
}

func TestExplicitDriftVector(t *testing.T) {
	ch := flockChannel(t)
	cfg := baseConfig(ch)
	drifts := make([]float64, ch.NumNodes())
	for i := range drifts {
		drifts[i] = 0 // perfect crystals
	}
	cfg.DriftPPM = drifts
	cfg.HopJitter = time.Nanosecond
	rep, err := Simulate(cfg, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	// With zero drift and ~ns jitter, error must be tiny.
	if rep.WorstError() > time.Microsecond {
		t.Errorf("zero-drift worst error %v, want < 1µs", rep.WorstError())
	}
}

func TestLargerDriftLargerError(t *testing.T) {
	ch := flockChannel(t)
	worst := func(ppm float64) time.Duration {
		cfg := baseConfig(ch)
		cfg.MaxDriftPPM = ppm
		rep, err := Simulate(cfg, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		return rep.WorstError()
	}
	if worst(100) <= worst(5) {
		t.Error("100 ppm crystals not worse than 5 ppm")
	}
}

func TestConfigValidation(t *testing.T) {
	ch := flockChannel(t)
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil channel", func(c *Config) { c.Channel = nil }},
		{"bad initiator", func(c *Config) { c.Initiator = 99 }},
		{"zero ntx", func(c *Config) { c.NTX = 0 }},
		{"zero interval", func(c *Config) { c.ResyncInterval = 0 }},
		{"zero rounds", func(c *Config) { c.Rounds = 0 }},
		{"drift size mismatch", func(c *Config) { c.DriftPPM = []float64{1} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := baseConfig(ch)
			tt.mutate(&cfg)
			if _, err := Simulate(cfg, rng); !errors.Is(err, ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestInitiatorIsReference(t *testing.T) {
	ch := flockChannel(t)
	cfg := baseConfig(ch)
	rep, err := Simulate(cfg, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	// The initiator is excluded from error sampling; with 26 nodes the mean
	// is over at most 25.
	for _, s := range rep.Samples {
		if s.Unsynced >= ch.NumNodes() {
			t.Error("unsynced count includes the reference node")
		}
	}
}
