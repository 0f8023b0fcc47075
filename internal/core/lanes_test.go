package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"iotmpc/internal/field"
	"iotmpc/internal/phy"
	"iotmpc/internal/seckey"
	"iotmpc/internal/sim"
	"iotmpc/internal/topology"
	"iotmpc/internal/trace"
)

// laneBackend pairs a radio backend with a round configuration sized for its
// topology, so the lane equivalence suite sweeps all three channel models.
type laneBackend struct {
	name string
	cfg  func(Protocol) Config
}

func laneBackends(t *testing.T) []laneBackend {
	t.Helper()
	lt, err := trace.Bundled("testbed10")
	if err != nil {
		t.Fatal(err)
	}
	grid, err := topology.Grid(2, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	return []laneBackend{
		{name: "logdist", cfg: flockConfig},
		{name: "unitdisk", cfg: func(p Protocol) Config {
			cfg := flockConfig(p)
			cfg.Backend = phy.UnitDiskFactory(35, 20)
			return cfg
		}},
		{name: "trace", cfg: func(p Protocol) Config {
			return Config{
				Topology:    grid,
				Backend:     trace.Factory(lt),
				Protocol:    p,
				Sources:     sourcesUpTo(10),
				Degree:      2,
				NTXSharing:  5,
				DestSlack:   1,
				ChannelSeed: 1,
			}
		}},
	}
}

// TestRunRoundLanesMatchesScalar is the tentpole equivalence test: for every
// backend and protocol, a bit-sliced batch must reproduce the scalar rounds
// field for field — outcomes, latencies, and radio ledgers — for any lane
// count, because every lane owns the trial's derived RNG streams.
func TestRunRoundLanesMatchesScalar(t *testing.T) {
	for _, be := range laneBackends(t) {
		for _, proto := range []Protocol{S3, S4} {
			be, proto := be, proto
			t.Run(be.name+"/"+proto.String(), func(t *testing.T) {
				boot := bootFor(t, be.cfg(proto))
				const base, count = 3, 5
				lanes, err := RunRoundLanes(boot, base, count)
				if err != nil {
					t.Fatal(err)
				}
				for l := 0; l < count; l++ {
					want, err := RunRound(boot, base+uint64(l))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(lanes[l], want) {
						t.Errorf("lane %d (trial %d) diverges from scalar round", l, base+uint64(l))
					}
				}
			})
		}
	}
}

// TestRunRoundLanesFullWidth packs phy.MaxLanes trials into one batch on the
// cheap trace testbed and checks every lane against its scalar trial.
func TestRunRoundLanesFullWidth(t *testing.T) {
	be := laneBackends(t)[2] // trace backend: 10 nodes
	boot := bootFor(t, be.cfg(S4))
	lanes, err := RunRoundLanes(boot, 0, phy.MaxLanes)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < phy.MaxLanes; l++ {
		want, err := RunRound(boot, uint64(l))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lanes[l], want) {
			t.Errorf("lane %d diverges from scalar round", l)
		}
	}
}

// TestRunRoundLanesPartitionInvariant checks the load-bearing determinism
// property: splitting a trial range into different lane groupings never
// changes any trial's result, so the experiment layer may batch however the
// worker count falls out.
func TestRunRoundLanesPartitionInvariant(t *testing.T) {
	be := laneBackends(t)[2]
	boot := bootFor(t, be.cfg(S4))
	whole, err := RunRoundLanes(boot, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	var split []*RoundResult
	for _, part := range []int{5, 3, 4} {
		batch, err := RunRoundLanes(boot, uint64(len(split)), part)
		if err != nil {
			t.Fatal(err)
		}
		split = append(split, batch...)
	}
	if !reflect.DeepEqual(whole, split) {
		t.Error("lane partition changed trial results")
	}
}

// TestRunRoundLanesVerifiable covers the commitment chain: verifiable rounds
// run TWO lane chains (commitments, then shares) and the per-lane
// verification counters must match the scalar rounds.
func TestRunRoundLanesVerifiable(t *testing.T) {
	cfg := flockConfig(S4)
	cfg.Verifiable = true
	boot := bootFor(t, cfg)
	const count = 4
	lanes, err := RunRoundLanes(boot, 0, count)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < count; l++ {
		want, err := RunRound(boot, uint64(l))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lanes[l], want) {
			t.Errorf("verifiable lane %d diverges from scalar round", l)
		}
		if lanes[l].VerifiedShares == 0 {
			t.Errorf("lane %d verified no shares", l)
		}
	}
}

// TestRunRoundLanesWithFailures covers the failure axis: killed destinations
// must fail identically in lane and scalar execution.
func TestRunRoundLanesWithFailures(t *testing.T) {
	cfg := flockConfig(S4)
	cfg.Sources = sourcesUpTo(12) // leave non-source destinations to kill
	cfg.DestSlack = 3
	boot := bootFor(t, cfg)
	failed := make([]bool, 26)
	killed := 0
	for _, d := range boot.Dests {
		if d == cfg.Initiator || contains(cfg.Sources, d) {
			continue
		}
		failed[d] = true
		if killed++; killed == 2 {
			break
		}
	}
	if killed == 0 {
		t.Skip("no killable destination (all are sources); topology-dependent")
	}
	cfg.Failed = failed
	cfg.Sources = removeFailed(cfg.Sources, failed)
	boot, err := RunBootstrap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := RunRoundLanes(boot, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 3; l++ {
		want, err := RunRound(boot, uint64(l))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lanes[l], want) {
			t.Errorf("failure-axis lane %d diverges from scalar round", l)
		}
	}
}

func TestRunRoundLanesErrors(t *testing.T) {
	if _, err := RunRoundLanes(nil, 0, 4); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil bootstrap: error = %v, want ErrBadConfig", err)
	}
	boot := bootFor(t, flockConfig(S4))
	for _, count := range []int{0, -1, phy.MaxLanes + 1} {
		if _, err := RunRoundLanes(boot, 0, count); !errors.Is(err, ErrBadConfig) {
			t.Errorf("count %d: error = %v, want ErrBadConfig", count, err)
		}
	}
}

// TestRunRoundLanesSingleLane checks that the count==1 fast path is exactly
// the scalar round.
func TestRunRoundLanesSingleLane(t *testing.T) {
	boot := bootFor(t, flockConfig(S3))
	lanes, err := RunRoundLanes(boot, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunRound(boot, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(lanes) != 1 || !reflect.DeepEqual(lanes[0], want) {
		t.Error("single-lane batch diverges from scalar round")
	}
}

// TestSharedBootstrapConcurrentLanes drives one bootstrap from two
// sim.ParallelFor workers at once, as the experiment runner does: the
// links prepared at bootstrap are shared by every concurrent round, and
// each lane batch must still match the scalar rounds exactly. The race CI
// job runs this under -race.
func TestSharedBootstrapConcurrentLanes(t *testing.T) {
	be := laneBackends(t)[2] // trace backend: 10 nodes
	verifiable := be.cfg(S4)
	verifiable.Verifiable = true
	verifiable.VectorLen = 2
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"S3", be.cfg(S3)},
		{"S4", be.cfg(S4)},
		{"S4-verifiable", verifiable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			boot := bootFor(t, tc.cfg)
			const batches, width = 4, 3
			got := make([][]*RoundResult, batches)
			err := sim.ParallelFor(batches, 2, func(i int) error {
				res, err := RunRoundLanes(boot, uint64(i*width), width)
				got[i] = res
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, batch := range got {
				for l, res := range batch {
					trial := uint64(i*width + l)
					want, err := RunRound(boot, trial)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res, want) {
						t.Errorf("trial %d: concurrent lane result diverges from RunRound", trial)
					}
				}
			}
		})
	}
}

// TestBootstrapLinksUsePairKeys pins the prepared links to the network's
// pairwise keys: every link a round seals under produces the packet the
// per-packet key path produces, in both directions of the pair.
func TestBootstrapLinksUsePairKeys(t *testing.T) {
	be := laneBackends(t)[2]
	for _, proto := range []Protocol{S3, S4} {
		boot := bootFor(t, be.cfg(proto))
		cfg := boot.Config()
		keys := seckey.NewStore(seckey.MasterFromSeed(cfg.MasterSeed))
		values := []field.Element{field.New(3), field.New(5)}
		pairs := 0
		for _, src := range cfg.Sources {
			for _, dst := range boot.sealDests() {
				if src == dst {
					continue
				}
				for _, dir := range [][2]int{{src, dst}, {dst, src}} {
					link, err := boot.link(dir[0], dir[1])
					if err != nil {
						t.Fatal(err)
					}
					key, err := keys.PairKey(dir[0], dir[1])
					if err != nil {
						t.Fatal(err)
					}
					ctx := seckey.PacketContext{Round: 1, Sender: uint16(dir[0]), Receiver: uint16(dir[1])}
					got, _ := link.SealVector(ctx, values)
					want, _ := seckey.SealVector(key, ctx, values)
					if !bytes.Equal(got, want) {
						t.Fatalf("%v link %d -> %d seals under the wrong key", proto, dir[0], dir[1])
					}
				}
				pairs++
			}
		}
		if pairs == 0 {
			t.Fatalf("%v: no links checked", proto)
		}
		if _, err := boot.link(0, 0); err == nil {
			t.Errorf("%v: self link should not exist", proto)
		}
	}
}

// FuzzRoundLanesMatchScalar is the round-level differential oracle of the
// lane path. The input picks the radio backend (log-distance, unit disk or
// trace replay) on a 10-node grid, the protocol, the vector length (0–9),
// verifiability, the sources, the crashed nodes, the lane count (2–64),
// the base trial and the channel seed; every lane of RunRoundLanes must
// then DeepEqual the scalar RunRound of its trial. Both paths run on
// pooled per-trial memory reused across lanes, batches and inputs, so a
// buffer aliased between two lanes, or stale from an earlier round of
// another shape, fails here. Explore with
// go test -fuzz=FuzzRoundLanesMatchScalar ./internal/core.
func FuzzRoundLanesMatchScalar(f *testing.F) {
	f.Add(uint8(0), true, uint8(0), false, uint16(0x3ff), uint16(0), uint8(3), uint64(0), int64(1))
	f.Add(uint8(1), false, uint8(8), false, uint16(0x0ff), uint16(0x300), uint8(62), uint64(1000), int64(2))
	f.Add(uint8(2), true, uint8(3), true, uint16(0x03f), uint16(0x080), uint8(5), uint64(7), int64(3))
	f.Add(uint8(0), false, uint8(9), true, uint16(0x00b), uint16(0x200), uint8(2), uint64(1<<40), int64(-4))
	f.Add(uint8(1), true, uint8(1), false, uint16(0x155), uint16(0x2aa), uint8(17), uint64(31), int64(5))
	f.Add(uint8(2), false, uint8(0), false, uint16(0x001), uint16(0x3fe), uint8(9), uint64(3), int64(6))
	lt, err := trace.Bundled("testbed10")
	if err != nil {
		f.Fatal(err)
	}
	grid, err := topology.Grid(2, 5, 10)
	if err != nil {
		f.Fatal(err)
	}
	backends := []phy.Factory{nil, phy.UnitDiskFactory(35, 20), trace.Factory(lt)}
	f.Fuzz(func(t *testing.T, backend uint8, s4 bool, vecLen uint8, verifiable bool,
		sourceMask, crashMask uint16, lanes uint8, base uint64, seed int64) {
		const n = 10
		cfg := Config{
			Topology:    grid,
			Backend:     backends[int(backend)%len(backends)],
			Protocol:    S3,
			Degree:      2,
			NTXSharing:  5,
			DestSlack:   1,
			ChannelSeed: seed,
			VectorLen:   int(vecLen) % 10,
			Verifiable:  verifiable,
		}
		if s4 {
			cfg.Protocol = S4
		}
		for i := 0; i < n; i++ {
			if sourceMask&(1<<i) != 0 {
				cfg.Sources = append(cfg.Sources, i)
			}
		}
		if len(cfg.Sources) == 0 {
			cfg.Sources = []int{0}
		}
		failed := make([]bool, n)
		for i := 1; i < n; i++ { // node 0 initiates and never crashes
			failed[i] = crashMask&(1<<i) != 0 && !contains(cfg.Sources, i)
		}
		cfg.Failed = failed
		boot, err := RunBootstrap(cfg)
		if errors.Is(err, ErrBootstrap) {
			return // a crash mask or backend the protocol cannot run on
		}
		if err != nil {
			t.Fatal(err)
		}
		count := 2 + int(lanes)%(phy.MaxLanes-1)
		got, err := RunRoundLanes(boot, base, count)
		if err != nil {
			t.Fatal(err)
		}
		for l, res := range got {
			want, err := RunRound(boot, base+uint64(l))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("lane %d of %d (trial %d) diverges from its scalar round", l, count, base+uint64(l))
			}
		}
	})
}
