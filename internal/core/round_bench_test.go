package core

import (
	"fmt"
	"testing"

	"iotmpc/internal/phy"
	"iotmpc/internal/topology"
)

// BenchmarkRunRoundLanes times one full-width batch of phy.MaxLanes trials
// on a warm pool — the sweep's unit of work — on FlockLab under the
// log-distance model, S4 with every node a source, scalar (L=0) and
// vector (L=8) readings. One op is 64 trials. CI's warm-round alloc gate
// bounds allocs/op, with one bound for both L values: the per-trial
// working memory is reused across batches and vector lengths, so only
// the returned results allocate.
func BenchmarkRunRoundLanes(b *testing.B) {
	for _, vecLen := range []int{0, 8} {
		b.Run(fmt.Sprintf("L=%d", vecLen), func(b *testing.B) {
			cfg := flockConfig(S4)
			cfg.VectorLen = vecLen
			benchmarkRunRoundLanes(b, cfg)
		})
	}
}

// BenchmarkRunRoundLanesVerifiable is BenchmarkRunRoundLanes for Feldman-
// verifiable rounds on a 20-node grid, S4 with every node a source, scalar
// (L=0) and vector (L=4) readings. Each source's commitments live in its
// pooled working memory in the exponent form, so verification allocates
// nothing per share or per trial. CI's verifiable round alloc gate bounds
// allocs/op at both L values with one bound of its own; the warm-round
// gate's pattern does not match this name.
func BenchmarkRunRoundLanesVerifiable(b *testing.B) {
	grid, err := topology.Grid(4, 5, 10)
	if err != nil {
		b.Fatal(err)
	}
	for _, vecLen := range []int{0, 4} {
		b.Run(fmt.Sprintf("L=%d", vecLen), func(b *testing.B) {
			benchmarkRunRoundLanes(b, Config{
				Topology:    grid,
				Protocol:    S4,
				Sources:     sourcesUpTo(20),
				NTXSharing:  6,
				DestSlack:   1,
				ChannelSeed: 1,
				Verifiable:  true,
				VectorLen:   vecLen,
			})
		})
	}
}

// benchmarkRunRoundLanes bootstraps cfg, warms the pools with one batch, and
// times batches of phy.MaxLanes fresh trials.
func benchmarkRunRoundLanes(b *testing.B, cfg Config) {
	boot, err := RunBootstrap(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := RunRoundLanes(boot, 0, phy.MaxLanes); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunRoundLanes(boot, uint64(i+1)*phy.MaxLanes, phy.MaxLanes); err != nil {
			b.Fatal(err)
		}
	}
}
