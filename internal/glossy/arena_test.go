package glossy

import (
	"math/rand"
	"reflect"
	"testing"

	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
	"iotmpc/internal/topology"
	"iotmpc/internal/trace"
)

// floodBackends builds one radio per backend family over the FlockLab
// deployment (the trace backend gets a synthetic PRR matrix of matching
// size), so arena equivalence is exercised against all three reception
// models — including the trace union products whose floating-point result
// depends on transmitter order.
func floodBackends(t *testing.T) map[string]phy.Radio {
	t.Helper()
	tb := topology.FlockLab()
	logdist, err := tb.Channel(phy.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	unitdisk, err := phy.NewUnitDisk(phy.DefaultParams(), tb.Positions, 35, 20)
	if err != nil {
		t.Fatal(err)
	}
	n := tb.NumNodes()
	lt := &trace.LinkTrace{Name: "synthetic", Nodes: n, PRR: make([][]float64, n)}
	rng := rand.New(rand.NewSource(4))
	for i := range lt.PRR {
		lt.PRR[i] = make([]float64, n)
		for j := range lt.PRR[i] {
			if i != j {
				lt.PRR[i][j] = rng.Float64()
			}
		}
	}
	replay, err := trace.NewChannel(phy.DefaultParams(), lt)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]phy.Radio{"logdist": logdist, "unitdisk": unitdisk, "trace": replay}
}

// TestRunArenaMatchesRun pins the arena path bit-for-bit to the allocating
// path (a nil arena), across backends and consecutive reused floods: same
// RNG stream in, same Result out, and the two RNGs still aligned afterwards.
func TestRunArenaMatchesRun(t *testing.T) {
	for name, radio := range floodBackends(t) {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Channel: radio, Initiator: 0, NTX: 4, PayloadBytes: 16}
			plain := rand.New(rand.NewSource(99))
			arenaRNG := rand.New(rand.NewSource(99))
			var arena sim.Arena
			var reused *Result
			for flood := 0; flood < 25; flood++ {
				want, err := RunArena(cfg, plain, nil, nil, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				arena.Reset()
				reused, err = RunArena(cfg, arenaRNG, nil, nil, &arena, reused)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, reused) {
					t.Fatalf("flood %d: arena result diverged\nwant %+v\ngot  %+v", flood, want, reused)
				}
			}
			if plain.Int63() != arenaRNG.Int63() {
				t.Fatal("RNG streams diverged between the allocating and arena paths")
			}
		})
	}
}

// TestWarmFloodZeroAlloc is the perf contract of the arena path: once the
// arena and the reused Result are warm, a flood performs zero heap
// allocations. CI additionally gates the benchmark's allocs/op at 0.
func TestWarmFloodZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under the race detector")
	}
	ch, err := topology.FlockLab().Channel(phy.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Channel: ch, Initiator: 0, NTX: 6, PayloadBytes: 16}
	rng := rand.New(rand.NewSource(1))
	var arena sim.Arena
	res, err := RunArena(cfg, rng, nil, nil, &arena, nil) // warm-up borrow
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		arena.Reset()
		if _, err := RunArena(cfg, rng, nil, nil, &arena, res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm flood allocates %.1f objects per run, want 0", allocs)
	}
}
