package minicast

import (
	"math/rand"
	"testing"
	"time"

	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
	"iotmpc/internal/topology"
	"iotmpc/internal/trace"
)

// referenceRunArena is the scalar chain loop as first written: every phase
// builds the transmitter list of every item a level node holds and walks all
// n receivers, testing possession, stop, jam and failure one by one. It is
// the oracle RunArena's item skipping and per-phase deaf mask must agree
// with, draw for draw.
func referenceRunArena(cfg Config, rng *rand.Rand, ledger *sim.RadioLedger) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	failed := func(node int) bool { return cfg.Failed != nil && cfg.Failed[node] }
	ch := cfg.Channel
	n := ch.NumNodes()
	chainLen := len(cfg.Items)
	params := ch.Params()
	slotLen, err := params.SlotDuration(cfg.PayloadBytes)
	if err != nil {
		return nil, err
	}
	burstProb := params.InterferenceBurstProb
	table := ch.LinkTable()
	threshold := cfg.LevelThreshold
	if threshold == 0 {
		threshold = 0.5
	}
	levelOf, levels := hopLevels(table, cfg.Initiator, threshold, nil)
	numLevels := len(levels)
	phaseLen := time.Duration(chainLen) * slotLen

	res := &Result{
		Have:      make([][]bool, n),
		RxAt:      make([][]time.Duration, n),
		StoppedAt: make([]time.Duration, n),
		Waves:     cfg.NTX,
		Levels:    numLevels,
		ChainLen:  chainLen,
		SlotLen:   slotLen,
		PhaseLen:  phaseLen,
		Duration:  time.Duration(cfg.NTX) * time.Duration(numLevels) * phaseLen,
	}
	rxWave := make([][]int32, n)
	notHeld := int32(cfg.NTX) + 1
	for node := 0; node < n; node++ {
		res.Have[node] = make([]bool, chainLen)
		res.RxAt[node] = make([]time.Duration, chainLen)
		rxWave[node] = make([]int32, chainLen)
		for i := range res.RxAt[node] {
			res.RxAt[node][i] = -1
			rxWave[node][i] = notHeld
		}
		res.StoppedAt[node] = -1
	}
	for i, it := range cfg.Items {
		res.Have[it.Owner][i] = true
		res.RxAt[it.Owner][i] = 0
		rxWave[it.Owner][i] = -1
	}
	holdersAtLevel := make([][]int, numLevels)
	for ℓ := range holdersAtLevel {
		holdersAtLevel[ℓ] = make([]int, chainLen)
	}
	for i, it := range cfg.Items {
		if ℓ := levelOf[it.Owner]; ℓ >= 0 {
			holdersAtLevel[ℓ][i]++
		}
	}
	listenSlots := make([]int, n)
	for node := 0; node < n; node++ {
		if cfg.ListenFilter == nil {
			listenSlots[node] = chainLen
			continue
		}
		for _, it := range cfg.Items {
			if cfg.ListenFilter(node, it) {
				listenSlots[node]++
			}
		}
	}
	stopped := make([]bool, n)
	jammed := make([]bool, n)
	txEligible := make([]int, n)

	var txers []int
	for wave := 0; wave < cfg.NTX; wave++ {
		for ℓ := 0; ℓ < numLevels; ℓ++ {
			phaseStart := (time.Duration(wave)*time.Duration(numLevels) + time.Duration(ℓ)) * phaseLen
			if cfg.StopListen != nil {
				for node := 0; node < n; node++ {
					if stopped[node] || failed(node) {
						continue
					}
					if cfg.StopListen(node, res.Have[node]) {
						stopped[node] = true
						res.StoppedAt[node] = phaseStart
					}
				}
			}
			for node := 0; node < n; node++ {
				jammed[node] = burstProb > 0 && rng.Float64() < burstProb
			}
			levelNodes := levels[ℓ]
			for _, node := range levelNodes {
				count := 0
				for i := range cfg.Items {
					if rxWave[node][i] < int32(wave) {
						count++
					}
				}
				txEligible[node] = count
			}
			for itemIdx, it := range cfg.Items {
				if holdersAtLevel[ℓ][itemIdx] == 0 {
					continue
				}
				txers = txers[:0]
				for _, node := range levelNodes {
					if rxWave[node][itemIdx] < int32(wave) && !failed(node) {
						txers = append(txers, node)
					}
				}
				if len(txers) == 0 {
					continue
				}
				rxTime := phaseStart + time.Duration(itemIdx+1)*slotLen
				for rx := 0; rx < n; rx++ {
					if res.Have[rx][itemIdx] || stopped[rx] || jammed[rx] || failed(rx) {
						continue
					}
					if cfg.ListenFilter != nil && !cfg.ListenFilter(rx, it) {
						continue
					}
					if !table.ReceiveConcurrentFast(rx, txers, rng) {
						continue
					}
					res.Have[rx][itemIdx] = true
					res.RxAt[rx][itemIdx] = rxTime
					rxWave[rx][itemIdx] = int32(wave)
					if lv := levelOf[rx]; lv >= 0 {
						holdersAtLevel[lv][itemIdx]++
					}
				}
			}
			if ledger != nil {
				if err := creditPhase(ledger, cfg.Failed, levelOf, ℓ, txEligible, listenSlots, stopped, slotLen, chainLen); err != nil {
					return nil, err
				}
			}
		}
	}
	return res, nil
}

// fuzzRadios holds one radio per backend family over the 4×5 grid: the
// log-distance channel, a gray-zone unit disk, and a trace replaying a
// synthetic blend of certain and probabilistic links.
func fuzzRadios(t testing.TB) []phy.Radio {
	t.Helper()
	tb, err := topology.Grid(4, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	logdist, err := tb.Channel(phy.DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	params := phy.DefaultParams()
	params.InterferenceBurstProb = 0.1
	unitdisk, err := phy.NewUnitDisk(params, tb.Positions, 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	n := tb.NumNodes()
	lt := &trace.LinkTrace{Name: "fuzz", Nodes: n, PRR: make([][]float64, n)}
	rng := rand.New(rand.NewSource(9))
	for i := range lt.PRR {
		lt.PRR[i] = make([]float64, n)
		for j := range lt.PRR[i] {
			if i == j || tb.Positions[i].Distance(tb.Positions[j]) > 15 {
				continue
			}
			if rng.Intn(3) == 0 {
				lt.PRR[i][j] = 1
			} else {
				lt.PRR[i][j] = rng.Float64()
			}
		}
	}
	replay, err := trace.NewChannel(params, lt)
	if err != nil {
		t.Fatal(err)
	}
	return []phy.Radio{logdist, unitdisk, replay}
}

// FuzzRunArenaMatchesReference drives RunArena and the reference loop from
// the same RNG state over a random backend, NTX up to 3×diameter, random
// crashes (owners included), an optional pure destination filter and an
// optional count-based StopListen. Invariant: identical Have, RxAt,
// StoppedAt, ledger transmit and listen times, and RNG streams still
// aligned afterwards.
func FuzzRunArenaMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(7), uint32(0), false, uint8(0), int64(1))
	f.Add(uint8(0), uint8(40), uint32(1<<3|1<<11), true, uint8(6), int64(2))
	f.Add(uint8(1), uint8(25), uint32(1<<19|1<<4), false, uint8(3), int64(3))
	f.Add(uint8(1), uint8(3), uint32(0), true, uint8(0), int64(4))
	f.Add(uint8(2), uint8(30), uint32(1<<2), true, uint8(9), int64(5))
	f.Add(uint8(2), uint8(12), uint32(0xF0F0), false, uint8(1), int64(6))
	radios := fuzzRadios(f)
	f.Fuzz(func(t *testing.T, backend, ntxSel uint8, failMask uint32, filter bool, stopAfter uint8, seed int64) {
		radio := radios[int(backend)%len(radios)]
		n := radio.NumNodes()
		diam, _, err := phy.Diameter(radio, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		ntx := 1 + int(ntxSel)%(3*(diam+1))
		// Node 0 initiates and never fails; every other node may crash,
		// owners included.
		var failed []bool
		if failMask&^1 != 0 {
			failed = make([]bool, n)
			for node := 1; node < n; node++ {
				failed[node] = failMask&(1<<node) != 0
			}
		}
		items := make([]Item, 0, 2*n)
		for src := 0; src < n; src++ {
			items = append(items, Item{Owner: src, Dst: -1}, Item{Owner: src, Dst: (src + 7) % n})
		}
		cfg := Config{Channel: radio, Initiator: 0, NTX: ntx, Items: items, PayloadBytes: 21, Failed: failed}
		if filter {
			cfg.ListenFilter = func(node int, it Item) bool { return it.Dst == -1 || it.Dst == node || node%3 == 0 }
		}
		if stopAfter > 0 {
			need := int(stopAfter)
			cfg.StopListen = func(node int, have []bool) bool {
				count := 0
				for _, h := range have {
					if h {
						count++
					}
				}
				return count >= need
			}
		}
		wantRNG := rand.New(rand.NewSource(seed))
		gotRNG := rand.New(rand.NewSource(seed))
		wantLedger := sim.NewRadioLedger(n)
		gotLedger := sim.NewRadioLedger(n)
		want, err := referenceRunArena(cfg, wantRNG, wantLedger)
		if err != nil {
			t.Fatal(err)
		}
		var arena sim.Arena
		got, err := RunArena(cfg, gotRNG, gotLedger, nil, &arena)
		if err != nil {
			t.Fatal(err)
		}
		for node := 0; node < n; node++ {
			for i := range items {
				if got.Have[node][i] != want.Have[node][i] || got.RxAt[node][i] != want.RxAt[node][i] {
					t.Fatalf("node %d item %d: have %v at %v, reference %v at %v", node, i,
						got.Have[node][i], got.RxAt[node][i], want.Have[node][i], want.RxAt[node][i])
				}
			}
			if got.StoppedAt[node] != want.StoppedAt[node] {
				t.Fatalf("node %d: stopped at %v, reference %v", node, got.StoppedAt[node], want.StoppedAt[node])
			}
			if gotLedger.TxTime(node) != wantLedger.TxTime(node) || gotLedger.RxTime(node) != wantLedger.RxTime(node) {
				t.Fatalf("node %d: radio tx %v rx %v, reference tx %v rx %v", node,
					gotLedger.TxTime(node), gotLedger.RxTime(node), wantLedger.TxTime(node), wantLedger.RxTime(node))
			}
		}
		if got.Duration != want.Duration || got.Levels != want.Levels {
			t.Fatalf("schedule diverged: %v/%d levels, reference %v/%d", got.Duration, got.Levels, want.Duration, want.Levels)
		}
		if gotRNG.Int63() != wantRNG.Int63() {
			t.Fatal("RNG stream diverged from the reference")
		}
	})
}
