package glossy

import (
	"math/rand"
	"reflect"
	"testing"

	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
	"iotmpc/internal/topology"
)

// TestRunLanesMatchesScalar pins the bit-sliced flood to its per-lane
// contract across all three backends and several lane counts: lane l's
// Result and radio ledger are bit-identical to a scalar flood on lane l's
// RNG stream, and every lane's stream stays aligned with its scalar twin —
// so partitioning a trial batch into lane groups of any width is
// deterministic.
func TestRunLanesMatchesScalar(t *testing.T) {
	for name, radio := range floodBackends(t) {
		t.Run(name, func(t *testing.T) {
			n := radio.NumNodes()
			cfg := Config{Channel: radio, Initiator: 0, NTX: 4, PayloadBytes: 16}
			for _, lanes := range []int{1, 2, 7, 64} {
				scalarRNG := make([]*rand.Rand, lanes)
				laneRNG := make([]*rand.Rand, lanes)
				laneLedgers := make([]*sim.RadioLedger, lanes)
				for l := 0; l < lanes; l++ {
					seed := int64(300 + l)
					scalarRNG[l] = rand.New(rand.NewSource(seed))
					laneRNG[l] = rand.New(rand.NewSource(seed))
					laneLedgers[l] = sim.NewRadioLedger(n)
				}
				var arena sim.Arena
				var res []*Result
				// Consecutive floods on the same streams catch drift that a
				// single flood would miss.
				for flood := 0; flood < 5; flood++ {
					arena.Reset()
					var err error
					res, err = RunLanes(cfg, lanes, laneRNG, laneLedgers, &arena, res)
					if err != nil {
						t.Fatal(err)
					}
					for l := 0; l < lanes; l++ {
						scalarLedger := sim.NewRadioLedger(n)
						want, err := RunArena(cfg, scalarRNG[l], scalarLedger, nil, nil, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(want, res[l]) {
							t.Fatalf("lanes=%d flood %d lane %d diverged\nwant %+v\ngot  %+v",
								lanes, flood, l, want, res[l])
						}
						for node := 0; node < n; node++ {
							if laneLedgers[l].OnTime(node) != scalarLedger.OnTime(node) {
								t.Fatalf("lanes=%d flood %d lane %d node %d: ledger %v != scalar %v",
									lanes, flood, l, node,
									laneLedgers[l].OnTime(node), scalarLedger.OnTime(node))
							}
						}
						// Ledgers accumulate across floods; reset the lane one
						// to keep the per-flood comparison exact.
						laneLedgers[l] = sim.NewRadioLedger(n)
					}
				}
				for l := 0; l < lanes; l++ {
					if scalarRNG[l].Int63() != laneRNG[l].Int63() {
						t.Fatalf("lanes=%d lane %d RNG stream diverged from its scalar twin", lanes, l)
					}
				}
			}
		})
	}
}

// TestRunLanesErrors covers the argument contract.
func TestRunLanesErrors(t *testing.T) {
	ch, err := topology.FlockLab().Channel(phy.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Channel: ch, Initiator: 0, NTX: 4, PayloadBytes: 16}
	rngs := make([]*rand.Rand, 64)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i)))
	}
	cases := []struct {
		name string
		call func() error
	}{
		{"zero lanes", func() error { _, err := RunLanes(cfg, 0, rngs, nil, nil, nil); return err }},
		{"too many lanes", func() error { _, err := RunLanes(cfg, 65, rngs, nil, nil, nil); return err }},
		{"short rngs", func() error { _, err := RunLanes(cfg, 8, rngs[:4], nil, nil, nil); return err }},
		{"short ledgers", func() error {
			_, err := RunLanes(cfg, 8, rngs, make([]*sim.RadioLedger, 4), nil, nil)
			return err
		}},
		{"short res", func() error { _, err := RunLanes(cfg, 8, rngs, nil, nil, make([]*Result, 4)); return err }},
		{"bad config", func() error { _, err := RunLanes(Config{}, 8, rngs, nil, nil, nil); return err }},
	}
	for _, tc := range cases {
		if tc.call() == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestWarmFloodLanesZeroAlloc is the perf contract of the lane path: once
// the arena and the reused result slots are warm, a 64-lane flood batch
// performs zero heap allocations — same bar the scalar arena path holds.
func TestWarmFloodLanesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under the race detector")
	}
	ch, err := topology.FlockLab().Channel(phy.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Channel: ch, Initiator: 0, NTX: 6, PayloadBytes: 16}
	rngs := make([]*rand.Rand, 64)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i)))
	}
	var arena sim.Arena
	res, err := RunLanes(cfg, 64, rngs, nil, &arena, nil) // warm-up borrow
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		arena.Reset()
		if _, err := RunLanes(cfg, 64, rngs, nil, &arena, res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm lane flood allocates %.1f objects per run, want 0", allocs)
	}
}

// benchFloodLanes runs one full lane batch per iteration and additionally
// reports ns/trial (ns/op divided by the lane count), the number directly
// comparable with BenchmarkFloodArena*.
func benchFloodLanes(b *testing.B, tb topology.Topology, lanes int) {
	ch := benchChannel(b, tb)
	cfg := Config{Channel: ch, Initiator: 0, NTX: 6, PayloadBytes: 16}
	rngs := make([]*rand.Rand, lanes)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i + 1)))
	}
	var arena sim.Arena
	res, err := RunLanes(cfg, lanes, rngs, nil, &arena, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		if res, err = RunLanes(cfg, lanes, rngs, nil, &arena, res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/trial")
}

func BenchmarkFloodLanesArenaFlockLab(b *testing.B) { benchFloodLanes(b, topology.FlockLab(), 64) }

func BenchmarkFloodLanesArenaDCube(b *testing.B) { benchFloodLanes(b, topology.DCube(), 64) }
