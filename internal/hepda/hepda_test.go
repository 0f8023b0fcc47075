package hepda

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"iotmpc/internal/core"
	"iotmpc/internal/sim"
	"iotmpc/internal/topology"
)

func flockConfig() Config {
	sources := make([]int, 26)
	for i := range sources {
		sources[i] = i
	}
	return Config{
		Topology:    topology.FlockLab(),
		Sources:     sources,
		ChannelSeed: 1,
	}
}

func TestRoundCorrectAggregate(t *testing.T) {
	res, err := RunRound(flockConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("aggregate %d != expected %d", res.Aggregate, res.Expected)
	}
	if res.DeliveryRate < 0.9 {
		t.Errorf("delivery rate %.3f", res.DeliveryRate)
	}
	if res.CiphertextBytes != 512 {
		t.Errorf("modeled ciphertext = %dB, want 512 (2048-bit N)", res.CiphertextBytes)
	}
}

func TestVectorRoundPaysPerCoordinate(t *testing.T) {
	// HE has no batched-sealing discount: an L-sensor reading costs L full
	// Paillier encryptions and decryptions, so crypto latency scales
	// linearly in L — the asymmetry the SSS vector round is measured
	// against.
	scalar, err := RunRound(flockConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := flockConfig()
	cfg.VectorLen = 4
	vec, err := RunRound(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Correct {
		t.Fatalf("aggregate vector %v != expected %v", vec.AggregateVec, vec.ExpectedVec)
	}
	if vec.VectorLen != 4 || len(vec.AggregateVec) != 4 || len(vec.ExpectedVec) != 4 {
		t.Fatalf("vector shape: %+v", vec)
	}
	if vec.Aggregate != vec.AggregateVec[0] || vec.Expected != vec.ExpectedVec[0] {
		t.Error("scalar views are not coordinate 0")
	}
	// Crypto dominates latency, and every coordinate pays full price: the
	// vector round's latency must sit near 4× the scalar round's.
	if vec.MeanLatency < 3*scalar.MeanLatency {
		t.Errorf("vector latency %v below 3× scalar %v — HE should not batch", vec.MeanLatency, scalar.MeanLatency)
	}
}

func TestVectorLenValidation(t *testing.T) {
	cfg := flockConfig()
	cfg.VectorLen = -1
	if _, err := RunRound(cfg, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative veclen: error = %v, want ErrBadConfig", err)
	}
	cfg.VectorLen = MaxVectorLen + 1
	if _, err := RunRound(cfg, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("oversized veclen: error = %v, want ErrBadConfig", err)
	}
}

func TestMaxVectorLenMatchesSSS(t *testing.T) {
	// The HE bound must track the SSS protocol's frame-budget bound so both
	// sides of an HE-vs-SSS comparison accept exactly the same L range;
	// hepda deliberately does not import core at runtime, so this test is
	// what keeps the two constants from drifting apart.
	if MaxVectorLen != core.MaxVectorLen {
		t.Fatalf("hepda.MaxVectorLen = %d, core.MaxVectorLen = %d", MaxVectorLen, core.MaxVectorLen)
	}
}

func TestLatencyDominatedByCrypto(t *testing.T) {
	// The paper's premise: HE latency is computation-bound. Encryption +
	// decryption alone must dominate the radio time.
	res, err := RunRound(flockConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cryptoFloor := DefaultCostModel2048().Encrypt + DefaultCostModel2048().Decrypt
	if res.MeanLatency < cryptoFloor {
		t.Errorf("latency %v below crypto floor %v", res.MeanLatency, cryptoFloor)
	}
	if res.MeanRadioOn >= res.MeanLatency/10 {
		t.Errorf("radio %v not small vs latency %v: HE should be compute-bound",
			res.MeanRadioOn, res.MeanLatency)
	}
}

func TestSinkPaysDecryption(t *testing.T) {
	cfg := flockConfig()
	res, err := RunRound(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPUBusy[cfg.Sink] <= res.CPUBusy[1] {
		t.Error("sink CPU not above a regular node's (decryption missing)")
	}
	for _, src := range cfg.Sources {
		if res.CPUBusy[src] < DefaultCostModel2048().Encrypt {
			t.Errorf("source %d CPU %v below one encryption", src, res.CPUBusy[src])
		}
	}
}

func TestModelKeyBitsScaling(t *testing.T) {
	small := flockConfig()
	small.ModelKeyBits = 1024
	resSmall, err := RunRound(small, 3)
	if err != nil {
		t.Fatal(err)
	}
	big := flockConfig()
	big.ModelKeyBits = 2048
	resBig, err := RunRound(big, 3)
	if err != nil {
		t.Fatal(err)
	}
	if resSmall.MeanLatency >= resBig.MeanLatency {
		t.Error("1024-bit round not faster than 2048-bit")
	}
	if resSmall.CiphertextBytes != 256 {
		t.Errorf("1024-bit ciphertext = %dB, want 256", resSmall.CiphertextBytes)
	}
}

func TestDeterministicPerTrial(t *testing.T) {
	a, err := RunRound(flockConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRound(flockConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Expected != b.Expected || a.MeanLatency != b.MeanLatency {
		t.Error("same trial diverged")
	}
	c, err := RunRound(flockConfig(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.Expected == c.Expected {
		t.Error("different trials produced identical readings")
	}
}

// TestDeploymentSharedAcrossTrials runs trials concurrently on one
// prepared deployment, out of order and with a VectorLen > 1, and requires
// each to equal the one-shot RunRound of its trial.
func TestDeploymentSharedAcrossTrials(t *testing.T) {
	cfg := flockConfig()
	cfg.VectorLen = 2
	d, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trials := []uint64{3, 0, 7, 1}
	got := make([]*RoundResult, len(trials))
	if err := sim.ParallelFor(len(trials), 2, func(i int) error {
		var err error
		got[i], err = d.RunRound(trials[i])
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i, trial := range trials {
		want, err := RunRound(cfg, trial)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("trial %d on the shared deployment differs from RunRound", trial)
		}
	}
}

func TestPrepareRejectsBadConfig(t *testing.T) {
	cfg := flockConfig()
	cfg.Sink = 99
	if _, err := Prepare(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Prepare with sink 99: %v, want ErrBadConfig", err)
	}
}

func TestConfigErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no sources", func(c *Config) { c.Sources = nil }},
		{"bad source", func(c *Config) { c.Sources = []int{99} }},
		{"bad sink", func(c *Config) { c.Sink = -2 }},
		{"tiny sim key", func(c *Config) { c.SimKeyBits = 64 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := flockConfig()
			tt.mutate(&cfg)
			if _, err := RunRound(cfg, 0); !errors.Is(err, ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestCustomCostModel(t *testing.T) {
	cfg := flockConfig()
	cfg.Cost = CostModel{
		Encrypt:   time.Millisecond,
		Decrypt:   time.Millisecond,
		Aggregate: time.Microsecond,
	}
	res, err := RunRound(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With a hardware PK accelerator (~ms), latency collapses to radio time.
	if res.MeanLatency > 30*time.Second {
		t.Errorf("accelerated latency %v unexpectedly large", res.MeanLatency)
	}
}
