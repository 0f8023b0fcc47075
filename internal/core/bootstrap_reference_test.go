package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"iotmpc/internal/minicast"
	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
	"iotmpc/internal/topology"
	"iotmpc/internal/trace"
)

// referenceBootstrap is RunBootstrap with the probe loops as first written:
// one scalar minicast round per probe, the NTX search stopping at an NTX's
// first probe short of full coverage. It is the oracle the lane-batched
// probes must agree with, NTX for NTX and destination for destination.
func referenceBootstrap(cfg Config) (*Bootstrap, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	ch, err := cfg.buildRadio()
	if err != nil {
		return nil, err
	}
	diam, connected := ch.LinkTable().Diameter(0.5)
	if !connected {
		return nil, fmt.Errorf("%w: topology %q disconnected", ErrBootstrap, cfg.Topology.Name)
	}
	b := &Bootstrap{Channel: ch, Diameter: diam, cfg: cfg}
	if err := referenceDeriveNTXFull(b); err != nil {
		return nil, err
	}
	if cfg.Protocol == S4 {
		if err := referenceDeriveDests(b); err != nil {
			return nil, err
		}
	}
	if err := b.prepareLinks(); err != nil {
		return nil, err
	}
	return b, nil
}

func referenceDeriveNTXFull(b *Bootstrap) error {
	n := b.Channel.NumNodes()
	items := probeItems(n)
	ceiling := ntxSearchCeiling * (b.Diameter + 1)
	var arena sim.Arena
	for ntx := b.Diameter; ntx <= ceiling; ntx++ {
		allFull := true
		for probe := 0; probe < probesPerNTX; probe++ {
			rng := sim.NewRNG(b.cfg.ChannelSeed, uint64(0x0B00+ntx*1000+probe))
			arena.Reset()
			res, err := minicast.RunArena(minicast.Config{
				Channel:      b.Channel,
				Initiator:    b.cfg.Initiator,
				NTX:          ntx,
				Items:        items,
				PayloadBytes: sumPayloadBytes(b.cfg.effVectorLen()),
			}, rng, nil, nil, &arena)
			if err != nil {
				return err
			}
			if res.MeanCoverage() < 1 {
				allFull = false
				break
			}
		}
		if allFull {
			b.NTXFull = 2*ntx + 2
			return nil
		}
	}
	return fmt.Errorf("%w: no full-coverage NTX found below %d", ErrBootstrap, ceiling)
}

func referenceDeriveDests(b *Bootstrap) error {
	n := b.Channel.NumNodes()
	items := probeItems(n)
	delivered := make([][]int, n)
	for i := range delivered {
		delivered[i] = make([]int, n)
	}
	var arena sim.Arena
	for probe := 0; probe < probesForDests; probe++ {
		rng := sim.NewRNG(b.cfg.ChannelSeed, uint64(0xDE57+probe))
		arena.Reset()
		res, err := minicast.RunArena(minicast.Config{
			Channel:      b.Channel,
			Initiator:    b.cfg.Initiator,
			NTX:          b.cfg.NTXSharing,
			Items:        items,
			PayloadBytes: sharePayloadBytes(b.cfg.effVectorLen()),
		}, rng, nil, nil, &arena)
		if err != nil {
			return err
		}
		for src := 0; src < n; src++ {
			for node := 0; node < n; node++ {
				if res.Have[node][src] {
					delivered[src][node]++
				}
			}
		}
	}
	type cand struct {
		node int
		rel  float64
	}
	cands := make([]cand, 0, n)
	for node := 0; node < n; node++ {
		worst := 1.0
		for _, src := range b.cfg.Sources {
			rel := float64(delivered[src][node]) / probesForDests
			if src == node {
				rel = 1
			}
			if rel < worst {
				worst = rel
			}
		}
		cands = append(cands, cand{node: node, rel: worst})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].rel != cands[j].rel {
			return cands[i].rel > cands[j].rel
		}
		return cands[i].node < cands[j].node
	})
	want := b.cfg.Degree + 1 + b.cfg.DestSlack
	if len(cands) < want || cands[want-1].rel < minReliability {
		got := 0
		for _, c := range cands {
			if c.rel >= minReliability {
				got++
			}
		}
		return fmt.Errorf("%w: need %d destinations with reliability >= %.2f at NTX=%d, have %d",
			ErrBootstrap, want, minReliability, b.cfg.NTXSharing, got)
	}
	b.Dests = make([]int, want)
	b.Reliability = make([]float64, want)
	for i := 0; i < want; i++ {
		b.Dests[i] = cands[i].node
		b.Reliability[i] = cands[i].rel
	}
	return nil
}

// oracleBackend names a radio backend for the bootstrap oracle; build
// returns its factory for a topology (nil selects log-distance).
type oracleBackend struct {
	name  string
	build func(t testing.TB, top topology.Topology) phy.Factory
}

var oracleBackends = []oracleBackend{
	{"logdist", func(testing.TB, topology.Topology) phy.Factory { return nil }},
	{"unitdisk-hard", func(testing.TB, topology.Topology) phy.Factory { return phy.UnitDiskFactory(0, 0) }},
	{"unitdisk-gray", func(testing.TB, topology.Topology) phy.Factory { return phy.UnitDiskFactory(0, 10) }},
	{"trace", traceOf},
}

// traceOf replays the link PRRs a log-distance channel over top measures:
// a trace whose links are mostly probabilistic, with union reception.
func traceOf(t testing.TB, top topology.Topology) phy.Factory {
	t.Helper()
	ch, err := top.Channel(phy.DefaultParams(), 11)
	if err != nil {
		t.Fatal(err)
	}
	n := top.NumNodes()
	table := ch.LinkTable()
	lt := &trace.LinkTrace{Name: top.Name, Nodes: n, PRR: make([][]float64, n)}
	for tx := range lt.PRR {
		lt.PRR[tx] = make([]float64, n)
		for rx := range lt.PRR[tx] {
			lt.PRR[tx][rx] = table.PRR(tx, rx)
		}
	}
	return trace.Factory(lt)
}

// oracleTopologies are the deployments the oracle probes: FlockLab, the
// 4×5 grid and a 20-node line (the deepest network, where S4 at the
// default NTX is infeasible and the NTX search runs longest).
func oracleTopologies(t testing.TB) []topology.Topology {
	t.Helper()
	grid, err := topology.Grid(4, 5, 30)
	if err != nil {
		t.Fatal(err)
	}
	line, err := topology.Line(20, 35)
	if err != nil {
		t.Fatal(err)
	}
	return []topology.Topology{topology.FlockLab(), grid, line}
}

// TestBootstrapMatchesReference pins the lane-batched probes to the scalar
// probe loops: the same NTXFull, destination set, reliabilities and error
// across testbeds, backends, loss rates, protocols and channel seeds.
func TestBootstrapMatchesReference(t *testing.T) {
	for _, top := range oracleTopologies(t) {
		n := top.NumNodes()
		for _, be := range oracleBackends {
			backend := be.build(t, top)
			for _, loss := range []float64{0, 0.1, 0.3} {
				for _, proto := range []Protocol{S3, S4} {
					name := fmt.Sprintf("%s/%s/loss=%.1f/%v", top.Name, be.name, loss, proto)
					t.Run(name, func(t *testing.T) {
						params := phy.DefaultParams()
						params.InterferenceBurstProb = loss
						for _, seed := range []int64{1, 2, 3} {
							cfg := Config{
								Topology:    top,
								PHY:         params,
								Backend:     backend,
								Protocol:    proto,
								Sources:     sourcesUpTo(n),
								DestSlack:   1,
								ChannelSeed: seed,
							}
							want, wantErr := referenceBootstrap(cfg)
							got, gotErr := RunBootstrap(cfg)
							if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
								t.Fatalf("seed %d: error %v, reference %v", seed, gotErr, wantErr)
							}
							if wantErr != nil {
								continue
							}
							if got.NTXFull != want.NTXFull || !reflect.DeepEqual(got.Dests, want.Dests) ||
								!reflect.DeepEqual(got.Reliability, want.Reliability) {
								t.Fatalf("seed %d: NTXFull %d dests %v rel %v; reference %d %v %v", seed,
									got.NTXFull, got.Dests, got.Reliability, want.NTXFull, want.Dests, want.Reliability)
							}
						}
					})
				}
			}
		}
	}
}

// benchmarkBootstrap times one whole bootstrap of FlockLab with every node
// a source, per backend and protocol.
func benchmarkBootstrap(b *testing.B, run func(Config) (*Bootstrap, error)) {
	backends := []struct {
		name    string
		factory phy.Factory
	}{
		{"logdist", nil},
		{"unitdisk", phy.UnitDiskFactory(0, 0)},
	}
	for _, be := range backends {
		for _, proto := range []Protocol{S3, S4} {
			b.Run(fmt.Sprintf("%s/%v", be.name, proto), func(b *testing.B) {
				cfg := flockConfig(proto)
				cfg.Backend = be.factory
				b.ReportAllocs()
				for b.Loop() {
					if _, err := run(cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBootstrap times RunBootstrap, whose probes run lane-batched.
func BenchmarkBootstrap(b *testing.B) { benchmarkBootstrap(b, RunBootstrap) }

// BenchmarkBootstrapReference times the scalar probe loops it replaced.
func BenchmarkBootstrapReference(b *testing.B) { benchmarkBootstrap(b, referenceBootstrap) }
