package minicast

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
	"iotmpc/internal/topology"
)

func flockChannel(t *testing.T) *phy.LogDistance {
	t.Helper()
	ch, err := topology.FlockLab().Channel(phy.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// allToAllItems builds one broadcast item per node.
func allToAllItems(n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Owner: i, Dst: -1}
	}
	return items
}

func TestAllToAllFullCoverageAtHighNTX(t *testing.T) {
	ch := flockChannel(t)
	cfg := Config{
		Channel:      ch,
		Initiator:    0,
		NTX:          12,
		Items:        allToAllItems(ch.NumNodes()),
		PayloadBytes: 20,
	}
	rng := rand.New(rand.NewSource(1))
	full := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		res, err := RunArena(cfg, rng, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanCoverage() == 1 {
			full++
		}
	}
	if full < trials*9/10 {
		t.Errorf("full all-to-all coverage in %d/%d trials at NTX=12", full, trials)
	}
}

func TestCoverageNonlinearInNTX(t *testing.T) {
	// The paper's key observation: a short increase in NTX makes a large
	// amount of data available, while full coverage takes comparatively
	// higher NTX. Verify coverage(NTX) is increasing and concave-ish: the
	// gain from the first half of the NTX range exceeds the gain from the
	// second half.
	ch := flockChannel(t)
	coverage := func(ntx int) float64 {
		rng := rand.New(rand.NewSource(7))
		total := 0.0
		const trials = 10
		for i := 0; i < trials; i++ {
			res, err := RunArena(Config{
				Channel:      ch,
				Initiator:    0,
				NTX:          ntx,
				Items:        allToAllItems(ch.NumNodes()),
				PayloadBytes: 20,
			}, rng, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			total += res.MeanCoverage()
		}
		return total / trials
	}
	c2, c6, c12 := coverage(2), coverage(6), coverage(12)
	if !(c2 < c6 && c6 <= c12) {
		t.Fatalf("coverage not increasing: c2=%.3f c6=%.3f c12=%.3f", c2, c6, c12)
	}
	if c6 < 0.75 {
		t.Errorf("NTX=6 coverage = %.3f; paper expects most data available at low NTX", c6)
	}
	gainFirst := c6 - c2
	gainSecond := c12 - c6
	if gainSecond >= gainFirst {
		t.Errorf("coverage gain not diminishing: first=%.3f second=%.3f", gainFirst, gainSecond)
	}
}

func TestNearItemsArriveBeforeFarItems(t *testing.T) {
	// On a line with initiator 0, node 5's chain data must reach node 1
	// later than node 2's data reaches node 1 (perimeter effect).
	p := phy.DefaultParams()
	p.ShadowingSigmaDB = 0
	p.FadingSigmaDB = 1
	top, err := topology.Line(6, 35)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := top.Channel(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var sumNear, sumFar float64
	const trials = 50
	for i := 0; i < trials; i++ {
		res, err := RunArena(Config{
			Channel:      ch,
			Initiator:    0,
			NTX:          8,
			Items:        allToAllItems(6),
			PayloadBytes: 20,
		}, rng, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.RxAt[1][2] < 0 || res.RxAt[1][5] < 0 {
			t.Fatalf("trial %d: item not delivered on line at NTX=8", i)
		}
		sumNear += res.RxAt[1][2].Seconds()
		sumFar += res.RxAt[1][5].Seconds()
	}
	if sumFar <= sumNear {
		t.Errorf("far item mean arrival %.4fs <= near item %.4fs", sumFar/trials, sumNear/trials)
	}
}

func TestDurationFormula(t *testing.T) {
	ch := flockChannel(t)
	items := allToAllItems(5)
	rng := rand.New(rand.NewSource(3))
	res, err := RunArena(Config{
		Channel:      ch,
		Initiator:    0,
		NTX:          3,
		Items:        items,
		PayloadBytes: 20,
	}, rng, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	slot, err := ch.Params().SlotDuration(20)
	if err != nil {
		t.Fatal(err)
	}
	wantPhase := time.Duration(len(items)) * slot
	if res.PhaseLen != wantPhase {
		t.Errorf("PhaseLen = %v, want %v", res.PhaseLen, wantPhase)
	}
	want := 3 * time.Duration(res.Levels) * wantPhase
	if res.Duration != want {
		t.Errorf("Duration = %v, want %v", res.Duration, want)
	}
}

func TestListenFilterBlocksReception(t *testing.T) {
	ch := flockChannel(t)
	n := ch.NumNodes()
	// Node 7 refuses to listen to anything: it must end with only its own item.
	cfg := Config{
		Channel:      ch,
		Initiator:    0,
		NTX:          10,
		Items:        allToAllItems(n),
		PayloadBytes: 20,
		ListenFilter: func(node int, it Item) bool { return node != 7 },
	}
	rng := rand.New(rand.NewSource(4))
	res, err := RunArena(cfg, rng, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if i == 7 {
			if !res.Have[7][7] {
				t.Error("node 7 lost its own item")
			}
			continue
		}
		if res.Have[7][i] {
			t.Errorf("filtered node received item %d", i)
		}
	}
}

func TestStopListenFreezesAndRecordsTime(t *testing.T) {
	ch := flockChannel(t)
	n := ch.NumNodes()
	// Node 9 stops after holding 5 items.
	cfg := Config{
		Channel:      ch,
		Initiator:    0,
		NTX:          12,
		Items:        allToAllItems(n),
		PayloadBytes: 20,
		StopListen: func(node int, have []bool) bool {
			if node != 9 {
				return false
			}
			count := 0
			for _, h := range have {
				if h {
					count++
				}
			}
			return count >= 5
		},
	}
	rng := rand.New(rand.NewSource(5))
	res, err := RunArena(cfg, rng, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoppedAt[9] < 0 {
		t.Fatal("node 9 never stopped")
	}
	held := 0
	for _, h := range res.Have[9] {
		if h {
			held++
		}
	}
	// It can only have gained items up to the phase boundary after the 5th.
	if held >= n {
		t.Errorf("stopped node still collected everything (%d items)", held)
	}
	for i := 0; i < n; i++ {
		if i != 9 && res.StoppedAt[i] >= 0 {
			t.Errorf("node %d stopped unexpectedly", i)
		}
	}
}

func TestFailedNodesNeitherSendNorReceive(t *testing.T) {
	ch := flockChannel(t)
	n := ch.NumNodes()
	failed := make([]bool, n)
	failed[3] = true
	cfg := Config{
		Channel:      ch,
		Initiator:    0,
		NTX:          12,
		Items:        allToAllItems(n),
		PayloadBytes: 20,
		Failed:       failed,
	}
	rng := rand.New(rand.NewSource(6))
	res, err := RunArena(cfg, rng, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Failed node received nothing beyond its own item.
	for i := 0; i < n; i++ {
		if i != 3 && res.Have[3][i] {
			t.Errorf("failed node holds item %d", i)
		}
	}
	// Its item never spread.
	for node := 0; node < n; node++ {
		if node != 3 && res.Have[node][3] {
			t.Errorf("node %d holds failed node's item", node)
		}
	}
}

// TestCoverageOfSkipsFailedNodes: a crashed node can never receive, so it
// is not counted as a miss. Once every live node holds a live owner's item,
// that item's coverage is exactly 1.
func TestCoverageOfSkipsFailedNodes(t *testing.T) {
	ch := flockChannel(t)
	n := ch.NumNodes()
	failed := make([]bool, n)
	failed[3] = true
	cfg := Config{
		Channel:      ch,
		Initiator:    0,
		NTX:          20,
		Items:        allToAllItems(n),
		PayloadBytes: 20,
		Failed:       failed,
	}
	res, err := RunArena(cfg, rand.New(rand.NewSource(6)), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const owner = 7
	for node := 0; node < n; node++ {
		if !failed[node] && !res.Have[node][owner] {
			t.Fatalf("live node %d lacks item %d at NTX %d", node, owner, cfg.NTX)
		}
	}
	if res.Have[3][owner] {
		t.Fatal("failed node received an item")
	}
	if cov := res.CoverageOf(owner); cov != 1 {
		t.Errorf("CoverageOf(%d) = %v with every live node holding it, want 1", owner, cov)
	}
}

func TestRadioAccounting(t *testing.T) {
	ch := flockChannel(t)
	n := ch.NumNodes()
	ledger := sim.NewRadioLedger(n)
	engine := sim.NewEngine()
	rng := rand.New(rand.NewSource(7))
	res, err := RunArena(Config{
		Channel:      ch,
		Initiator:    0,
		NTX:          4,
		Items:        allToAllItems(n),
		PayloadBytes: 20,
	}, rng, ledger, engine, nil)
	if err != nil {
		t.Fatal(err)
	}
	if engine.Now() != res.Duration {
		t.Errorf("engine clock %v != duration %v", engine.Now(), res.Duration)
	}
	for i := 0; i < n; i++ {
		on := ledger.OnTime(i)
		if on == 0 {
			t.Errorf("node %d radio never on", i)
		}
		if on > res.Duration {
			t.Errorf("node %d on-time %v exceeds duration %v", i, on, res.Duration)
		}
		if ledger.TxTime(i) == 0 {
			t.Errorf("node %d never transmitted (all nodes own an item)", i)
		}
	}
}

func TestDutyCycledListenerSpendsLessRadio(t *testing.T) {
	ch := flockChannel(t)
	n := ch.NumNodes()
	run := func(filter func(int, Item) bool) time.Duration {
		ledger := sim.NewRadioLedger(n)
		rng := rand.New(rand.NewSource(8))
		_, err := RunArena(Config{
			Channel:      ch,
			Initiator:    0,
			NTX:          6,
			Items:        allToAllItems(n),
			PayloadBytes: 20,
			ListenFilter: filter,
		}, rng, ledger, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ledger.OnTime(11)
	}
	full := run(nil)
	half := run(func(node int, it Item) bool {
		if node != 11 {
			return true
		}
		return it.Owner%2 == 0 // node 11 listens to half the sub-slots
	})
	if half >= full {
		t.Errorf("duty-cycled on-time %v >= full %v", half, full)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	ch := flockChannel(t)
	run := func() *Result {
		rng := rand.New(rand.NewSource(99))
		res, err := RunArena(Config{
			Channel:      ch,
			Initiator:    0,
			NTX:          5,
			Items:        allToAllItems(ch.NumNodes()),
			PayloadBytes: 20,
		}, rng, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for node := range a.Have {
		for item := range a.Have[node] {
			if a.Have[node][item] != b.Have[node][item] ||
				a.RxAt[node][item] != b.RxAt[node][item] {
				t.Fatalf("same seed diverged at node %d item %d", node, item)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	ch := flockChannel(t)
	items := allToAllItems(ch.NumNodes())
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name string
		cfg  Config
	}{
		{"nil channel", Config{NTX: 1, Items: items}},
		{"bad initiator", Config{Channel: ch, Initiator: 99, NTX: 1, Items: items}},
		{"zero ntx", Config{Channel: ch, NTX: 0, Items: items}},
		{"empty chain", Config{Channel: ch, NTX: 1}},
		{"payload too big", Config{Channel: ch, NTX: 1, Items: items, PayloadBytes: 200}},
		{"bad owner", Config{Channel: ch, NTX: 1, Items: []Item{{Owner: -1}}}},
		{"bad dst", Config{Channel: ch, NTX: 1, Items: []Item{{Owner: 0, Dst: 99}}}},
		{"failed size mismatch", Config{Channel: ch, NTX: 1, Items: items, Failed: []bool{true}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := RunArena(tt.cfg, rng, nil, nil, nil); !errors.Is(err, ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestOwnersHoldOwnItemsAtTimeZero(t *testing.T) {
	ch := flockChannel(t)
	rng := rand.New(rand.NewSource(11))
	res, err := RunArena(Config{
		Channel:      ch,
		Initiator:    0,
		NTX:          1,
		Items:        allToAllItems(ch.NumNodes()),
		PayloadBytes: 20,
	}, rng, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Have {
		if !res.Have[i][i] || res.RxAt[i][i] != 0 {
			t.Errorf("node %d does not hold its own item at t=0", i)
		}
	}
}

func TestMultiItemPerOwnerChain(t *testing.T) {
	// Sharing-phase style chain: node 2 sends distinct items to nodes 0..3.
	ch := flockChannel(t)
	items := []Item{
		{Owner: 2, Dst: 0},
		{Owner: 2, Dst: 1},
		{Owner: 2, Dst: 3},
		{Owner: 2, Dst: 4},
	}
	rng := rand.New(rand.NewSource(12))
	res, err := RunArena(Config{
		Channel:      ch,
		Initiator:    0,
		NTX:          10,
		Items:        items,
		PayloadBytes: 25,
	}, rng, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if !res.Have[items[i].Dst][i] {
			t.Errorf("destination %d missing its item %d", items[i].Dst, i)
		}
	}
}
