package minicast

import (
	"errors"
	"math/rand"
	"testing"

	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
	"iotmpc/internal/topology"
	"iotmpc/internal/trace"
)

// laneRadios builds one radio per backend family over FlockLab (the trace
// backend gets a synthetic PRR matrix with a blend of certain and
// probabilistic links, the mix the bit-sliced kernel optimizes for).
func laneRadios(t *testing.T) map[string]phy.Radio {
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
			if i == j {
				continue
			}
			switch rng.Intn(4) {
			case 0: // dead link
			case 1:
				lt.PRR[i][j] = 1
			default:
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

// assertLanesMatchScalar runs the lane batch and one scalar round per lane
// on paired RNG streams, comparing possession, radio credits, and RNG
// alignment.
func assertLanesMatchScalar(t *testing.T, cfg Config, lanes int) {
	t.Helper()
	n := cfg.Channel.NumNodes()
	scalarRNG := make([]*rand.Rand, lanes)
	laneRNG := make([]*rand.Rand, lanes)
	ledgers := make([]*sim.RadioLedger, lanes)
	for l := 0; l < lanes; l++ {
		seed := int64(500 + l)
		scalarRNG[l] = rand.New(rand.NewSource(seed))
		laneRNG[l] = rand.New(rand.NewSource(seed))
		ledgers[l] = sim.NewRadioLedger(n)
	}
	var arena sim.Arena
	got, err := RunLanes(cfg, lanes, laneRNG, ledgers, &arena)
	if err != nil {
		t.Fatal(err)
	}
	if got.ChainLen != len(cfg.Items) || got.Levels <= 0 {
		t.Fatalf("bad schedule: %+v", got)
	}
	for l := 0; l < lanes; l++ {
		wantLedger := sim.NewRadioLedger(n)
		want, err := RunArena(cfg, scalarRNG[l], wantLedger, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Waves != want.Waves || got.Levels != want.Levels ||
			got.SlotLen != want.SlotLen || got.PhaseLen != want.PhaseLen ||
			got.Duration != want.Duration {
			t.Fatalf("lane %d: schedule diverged: lanes %+v scalar %+v", l, got, want)
		}
		bit := uint64(1) << l
		for node := 0; node < n; node++ {
			for item := range cfg.Items {
				if (got.Have(node, item)&bit != 0) != want.Have[node][item] {
					t.Fatalf("lane %d: Have(%d,%d) = %v, scalar %v",
						l, node, item, got.Have(node, item)&bit != 0, want.Have[node][item])
				}
			}
			if ledgers[l].TxTime(node) != wantLedger.TxTime(node) || ledgers[l].RxTime(node) != wantLedger.RxTime(node) {
				t.Fatalf("lane %d node %d: radio credit tx %v rx %v != scalar tx %v rx %v", l, node,
					ledgers[l].TxTime(node), ledgers[l].RxTime(node), wantLedger.TxTime(node), wantLedger.RxTime(node))
			}
		}
		if scalarRNG[l].Int63() != laneRNG[l].Int63() {
			t.Fatalf("lane %d RNG stream diverged from its scalar twin", l)
		}
	}
}

// TestMinicastRunLanesMatchesScalar covers the chain across backends and
// lane counts, on a broadcast all-to-all chain.
func TestMinicastRunLanesMatchesScalar(t *testing.T) {
	for name, radio := range laneRadios(t) {
		t.Run(name, func(t *testing.T) {
			n := radio.NumNodes()
			cfg := Config{
				Channel:      radio,
				Initiator:    0,
				NTX:          3,
				Items:        allToAllItems(n),
				PayloadBytes: 16,
			}
			for _, lanes := range []int{1, 3, 64} {
				assertLanesMatchScalar(t, cfg, lanes)
			}
		})
	}
}

// TestMinicastRunLanesWithFailures: failed nodes neither send nor receive,
// identically per lane.
func TestMinicastRunLanesWithFailures(t *testing.T) {
	ch := flockChannel(t)
	n := ch.NumNodes()
	failed := make([]bool, n)
	failed[3], failed[17] = true, true
	cfg := Config{
		Channel:      ch,
		Initiator:    0,
		NTX:          3,
		Items:        allToAllItems(n),
		PayloadBytes: 16,
		Failed:       failed,
	}
	assertLanesMatchScalar(t, cfg, 16)
}

// TestMinicastRunLanesListenFilter: a pure destination filter is honored in
// every lane and keeps the radio accounting aligned.
func TestMinicastRunLanesListenFilter(t *testing.T) {
	ch := flockChannel(t)
	n := ch.NumNodes()
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Owner: i, Dst: (i + 1) % n}
	}
	cfg := Config{
		Channel:      ch,
		Initiator:    0,
		NTX:          3,
		Items:        items,
		PayloadBytes: 16,
		ListenFilter: func(node int, it Item) bool { return it.Dst == -1 || it.Dst == node },
	}
	assertLanesMatchScalar(t, cfg, 8)
}

// TestMinicastRunLanesPastFullCoverage runs the chain at S3's sizing,
// NTX = 2×diameter+2, well past full coverage, with crashed nodes (one an
// owner) and a pure destination filter. Broadcast items reach every live
// node in every lane early, so the later waves take the item-skip path.
func TestMinicastRunLanesPastFullCoverage(t *testing.T) {
	for name, radio := range laneRadios(t) {
		t.Run(name, func(t *testing.T) {
			n := radio.NumNodes()
			diam, _ := radio.LinkTable().Diameter(0.5)
			failed := make([]bool, n)
			failed[5], failed[18] = true, true
			items := allToAllItems(n)
			for src := 0; src < n; src += 3 {
				items = append(items, Item{Owner: src, Dst: (src + 4) % n})
			}
			cfg := Config{
				Channel:      radio,
				Initiator:    0,
				NTX:          2*diam + 2,
				Items:        items,
				PayloadBytes: 16,
				Failed:       failed,
				ListenFilter: func(node int, it Item) bool { return it.Dst == -1 || it.Dst == node },
			}
			for _, lanes := range []int{1, 24, 64} {
				assertLanesMatchScalar(t, cfg, lanes)
			}
		})
	}
}

// TestMinicastRunLanesRejectsStopListen: duty-cycle predicates make the
// per-phase draw schedule lane-dependent; the lane path must refuse them
// loudly instead of silently diverging.
func TestMinicastRunLanesRejectsStopListen(t *testing.T) {
	ch := flockChannel(t)
	cfg := Config{
		Channel:      ch,
		Initiator:    0,
		NTX:          3,
		Items:        allToAllItems(ch.NumNodes()),
		PayloadBytes: 16,
		StopListen:   func(node int, have []bool) bool { return false },
	}
	rngs := []*rand.Rand{rand.New(rand.NewSource(1))}
	if _, err := RunLanes(cfg, 1, rngs, nil, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("error = %v, want ErrBadConfig", err)
	}
}

func TestMinicastRunLanesErrors(t *testing.T) {
	ch := flockChannel(t)
	cfg := Config{Channel: ch, Initiator: 0, NTX: 3, Items: allToAllItems(ch.NumNodes()), PayloadBytes: 16}
	rngs := make([]*rand.Rand, 64)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i)))
	}
	if _, err := RunLanes(cfg, 0, rngs, nil, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero lanes: error = %v", err)
	}
	if _, err := RunLanes(cfg, 65, rngs, nil, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("too many lanes: error = %v", err)
	}
	if _, err := RunLanes(cfg, 8, rngs[:2], nil, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("short rngs: error = %v", err)
	}
	if _, err := RunLanes(cfg, 8, rngs, make([]*sim.RadioLedger, 2), nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("short ledgers: error = %v", err)
	}
	if _, err := RunLanes(Config{}, 8, rngs, nil, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad config: error = %v", err)
	}
}
