package core

import (
	"fmt"
	"testing"

	"iotmpc/internal/phy"
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
		})
	}
}
