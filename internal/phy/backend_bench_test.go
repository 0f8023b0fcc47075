package phy_test

import (
	"math/rand"
	"testing"

	"iotmpc/internal/phy"
	"iotmpc/internal/trace"
)

// Backend draw benchmarks: the LinkTable's ReceiveConcurrentFast is the
// scalar flood and chain hot path (millions of draws per round). CI's bench
// smoke records its per-draw cost on each backend's table in
// BENCH_phy.json.

func benchPositions(n int) []phy.Position {
	rng := rand.New(rand.NewSource(1))
	pos := make([]phy.Position, n)
	for i := range pos {
		pos[i] = phy.Position{X: rng.Float64() * 100, Y: rng.Float64() * 80}
	}
	return pos
}

func benchTrace(n int) *trace.LinkTrace {
	tr := &trace.LinkTrace{Name: "bench", Nodes: n, PRR: make([][]float64, n)}
	rng := rand.New(rand.NewSource(2))
	for i := range tr.PRR {
		tr.PRR[i] = make([]float64, n)
		for j := range tr.PRR[i] {
			if i != j {
				tr.PRR[i][j] = rng.Float64()
			}
		}
	}
	return tr
}

// BenchmarkLinkTableReceiveConcurrentFast times one four-transmitter
// concurrent draw on each backend's table.
func BenchmarkLinkTableReceiveConcurrentFast(b *testing.B) {
	const n = 24
	pos := benchPositions(n)
	logdist, err := phy.NewLogDistance(phy.DefaultParams(), pos, 1)
	if err != nil {
		b.Fatal(err)
	}
	unitdisk, err := phy.NewUnitDisk(phy.DefaultParams(), pos, 40, 10)
	if err != nil {
		b.Fatal(err)
	}
	replay, err := trace.NewChannel(phy.DefaultParams(), benchTrace(n))
	if err != nil {
		b.Fatal(err)
	}
	transmitters := []int{1, 2, 3, 4}
	for _, bc := range []struct {
		name  string
		radio phy.Radio
	}{
		{"logdist", logdist},
		{"unitdisk", unitdisk},
		{"trace", replay},
	} {
		b.Run(bc.name, func(b *testing.B) {
			table := bc.radio.LinkTable()
			rng := rand.New(rand.NewSource(3))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				table.ReceiveConcurrentFast(i%n, transmitters, rng)
			}
		})
	}
}
