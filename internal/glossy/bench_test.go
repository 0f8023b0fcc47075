package glossy

import (
	"math/rand"
	"testing"

	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
	"iotmpc/internal/topology"
)

// Flood benchmarks at real testbed sizes (FlockLab 26 nodes, D-Cube 48).
// The plain variants allocate per flood (the historical API); the Arena
// variants are the warm hot path the scenario engine runs on — CI exports
// both to BENCH_flood.json and gates the Arena variants at 0 allocs/op.

func benchChannel(b *testing.B, tb topology.Topology) *phy.LogDistance {
	b.Helper()
	ch, err := tb.Channel(phy.DefaultParams(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return ch
}

func benchFlood(b *testing.B, tb topology.Topology) {
	ch := benchChannel(b, tb)
	rng := rand.New(rand.NewSource(1))
	cfg := Config{Channel: ch, Initiator: 0, NTX: 6, PayloadBytes: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunArena(cfg, rng, nil, nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFloodArena(b *testing.B, tb topology.Topology) {
	ch := benchChannel(b, tb)
	rng := rand.New(rand.NewSource(1))
	cfg := Config{Channel: ch, Initiator: 0, NTX: 6, PayloadBytes: 16}
	var arena sim.Arena
	res, err := RunArena(cfg, rng, nil, nil, &arena, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		if res, err = RunArena(cfg, rng, nil, nil, &arena, res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFloodFlockLab(b *testing.B) { benchFlood(b, topology.FlockLab()) }

func BenchmarkFloodDCube(b *testing.B) { benchFlood(b, topology.DCube()) }

func BenchmarkFloodArenaFlockLab(b *testing.B) { benchFloodArena(b, topology.FlockLab()) }

func BenchmarkFloodArenaDCube(b *testing.B) { benchFloodArena(b, topology.DCube()) }
