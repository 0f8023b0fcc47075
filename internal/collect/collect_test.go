package collect

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"iotmpc/internal/field"
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

func TestBuildTreeProperties(t *testing.T) {
	ch := flockChannel(t)
	tree, err := BuildTree(ch, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Parent[0] != -1 || tree.Depth[0] != 0 {
		t.Error("sink must be the root")
	}
	for node := 1; node < ch.NumNodes(); node++ {
		p := tree.Parent[node]
		if p < 0 {
			t.Fatalf("node %d has no parent", node)
		}
		if tree.Depth[p] != tree.Depth[node]-1 {
			t.Errorf("node %d (depth %d) has parent at depth %d",
				node, tree.Depth[node], tree.Depth[p])
		}
	}
}

func TestBuildTreeErrors(t *testing.T) {
	ch := flockChannel(t)
	if _, err := BuildTree(ch, 99, 0.5); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad sink: %v, want ErrBadConfig", err)
	}
	// Impossibly high threshold disconnects everything.
	if _, err := BuildTree(ch, 0, 0.99999); !errors.Is(err, ErrDisconnected) {
		t.Errorf("threshold 1: %v, want ErrDisconnected", err)
	}
}

func TestConvergecastDeliversWithRetries(t *testing.T) {
	ch := flockChannel(t)
	tree, err := BuildTree(ch, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	res, err := Run(Config{
		Channel:      ch,
		Tree:         tree,
		MessageBytes: 512, // a 2048-bit Paillier ciphertext
		MaxRetries:   12,
	}, rng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rate := res.DeliveryRate(); rate < 0.95 {
		t.Errorf("delivery rate %.3f, want >= 0.95 with 12 retries", rate)
	}
	if res.Duration <= 0 || res.FramesSent == 0 {
		t.Errorf("degenerate result: %+v", res)
	}
}

func TestFragmentationCosts(t *testing.T) {
	ch := flockChannel(t)
	tree, err := BuildTree(ch, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	frames := func(messageBytes int) int {
		rng := rand.New(rand.NewSource(2))
		res, err := Run(Config{
			Channel:      ch,
			Tree:         tree,
			MessageBytes: messageBytes,
			MaxRetries:   12,
		}, rng, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.FramesSent
	}
	small := frames(8)   // plaintext-sized
	large := frames(512) // HE ciphertext
	if large < small*3 {
		t.Errorf("512B messages sent %d frames vs %d for 8B; fragmentation not costed", large, small)
	}
}

func TestAncestorFailureDropsSubtree(t *testing.T) {
	// Build a 3-node line: 0 (sink) - 1 - 2. If link 1->0 fails, node 2's
	// contribution must be reported undelivered even if 2->1 succeeded.
	p := phy.DefaultParams()
	p.ShadowingSigmaDB = 0
	p.FadingSigmaDB = 0
	// Node 1 is barely in range of 0 — force failures by distance.
	ch, err := phy.NewLogDistance(p, []phy.Position{{X: 0}, {X: 95}, {X: 120}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := &Tree{Sink: 0, Parent: []int{-1, 0, 1}, Depth: []int{0, 1, 2}}
	rng := rand.New(rand.NewSource(3))
	res, err := Run(Config{
		Channel:      ch,
		Tree:         tree,
		MessageBytes: 64,
		MaxRetries:   1,
	}, rng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.LinkOK[1] && res.DeliveredToSink[2] {
		t.Error("node 2 delivered although its ancestor's link failed")
	}
}

func TestRadioAccountingSparse(t *testing.T) {
	// The defining property of unicast trees: most nodes' radios are OFF
	// most of the time, unlike CT where everyone listens for the full round.
	ch := flockChannel(t)
	tree, err := BuildTree(ch, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ledger := sim.NewRadioLedger(ch.NumNodes())
	engine := sim.NewEngine()
	rng := rand.New(rand.NewSource(4))
	res, err := Run(Config{
		Channel:      ch,
		Tree:         tree,
		MessageBytes: 512,
		MaxRetries:   12,
	}, rng, ledger, engine)
	if err != nil {
		t.Fatal(err)
	}
	if engine.Now() != res.Duration {
		t.Errorf("engine %v != duration %v", engine.Now(), res.Duration)
	}
	// A leaf's on-time must be far below the round duration.
	leaf := -1
	isParent := make([]bool, ch.NumNodes())
	for _, p := range tree.Parent {
		if p >= 0 {
			isParent[p] = true
		}
	}
	for node := 1; node < ch.NumNodes(); node++ {
		if !isParent[node] {
			leaf = node
			break
		}
	}
	if leaf < 0 {
		t.Skip("no leaf found")
	}
	if on := ledger.OnTime(leaf); on >= res.Duration/4 {
		t.Errorf("leaf %d on-time %v not sparse vs duration %v", leaf, on, res.Duration)
	}
}

func TestConfigValidation(t *testing.T) {
	ch := flockChannel(t)
	tree, err := BuildTree(ch, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name string
		cfg  Config
	}{
		{"nil channel", Config{Tree: tree, MessageBytes: 8}},
		{"nil tree", Config{Channel: ch, MessageBytes: 8}},
		{"zero message", Config{Channel: ch, Tree: tree}},
		{"negative retries", Config{Channel: ch, Tree: tree, MessageBytes: 8, MaxRetries: -1}},
		{"participants mismatch", Config{Channel: ch, Tree: tree, MessageBytes: 8, Participants: []bool{true}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(tt.cfg, rng, nil, nil); !errors.Is(err, ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
		})
	}
}

// TestRunRejectsMalformedTree hands Run hand-built trees over a 3-node
// line (adjacent nodes in range). Each malformed one must be rejected with
// ErrBadConfig; a cycle would otherwise spin the delivery walk forever and
// an out-of-range index would panic, so every Run races a deadline and
// recovers panics.
func TestRunRejectsMalformedTree(t *testing.T) {
	u, err := phy.NewUnitDisk(phy.IdealParams(), []phy.Position{{X: 0}, {X: 10}, {X: 20}}, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(tree *Tree) error {
		done := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Errorf("panic: %v", r)
				}
			}()
			_, err := Run(Config{Channel: u, Tree: tree, MessageBytes: 8}, rand.New(rand.NewSource(1)), nil, nil)
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			return errors.New("Run did not return")
		}
	}
	if err := run(&Tree{Sink: 0, Parent: []int{-1, 0, 1}, Depth: []int{0, 1, 2}}); err != nil {
		t.Fatalf("valid tree: %v", err)
	}
	for _, tc := range []struct {
		name string
		tree Tree
	}{
		{"cycle", Tree{Sink: 0, Parent: []int{-1, 2, 1}, Depth: []int{0, 1, 1}}},
		{"sink out of range", Tree{Sink: 9, Parent: []int{-1, 0, 1}, Depth: []int{0, 1, 2}}},
		{"negative sink", Tree{Sink: -1, Parent: []int{-1, 0, 1}, Depth: []int{0, 1, 2}}},
		{"short depth", Tree{Sink: 0, Parent: []int{-1, 0, 1}, Depth: []int{0, 1}}},
		{"parent out of range", Tree{Sink: 0, Parent: []int{-1, 7, 1}, Depth: []int{0, 1, 2}}},
		{"orphan", Tree{Sink: 0, Parent: []int{-1, -1, 1}, Depth: []int{0, 1, 2}}},
		{"sink has a parent", Tree{Sink: 0, Parent: []int{1, 0, 1}, Depth: []int{0, 1, 2}}},
		{"sink not at depth 0", Tree{Sink: 0, Parent: []int{-1, 0, 1}, Depth: []int{1, 2, 3}}},
		{"depth skips a level", Tree{Sink: 0, Parent: []int{-1, 0, 0}, Depth: []int{0, 1, 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(&tc.tree); !errors.Is(err, ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestDeterministic(t *testing.T) {
	ch := flockChannel(t)
	tree, err := BuildTree(ch, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		rng := rand.New(rand.NewSource(77))
		res, err := Run(Config{Channel: ch, Tree: tree, MessageBytes: 128, MaxRetries: 6}, rng, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.FramesSent != b.FramesSent || a.Duration != b.Duration {
		t.Error("same seed diverged")
	}
}

func TestAggregateReadings(t *testing.T) {
	ch := flockChannel(t)
	tree, err := BuildTree(ch, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	n := ch.NumNodes()
	cfg := Config{Channel: ch, Tree: tree, MessageBytes: 32}
	res, err := Run(cfg, rand.New(rand.NewSource(3)), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	const width = 4
	readings := make([][]field.Element, n)
	for i := range readings {
		readings[i] = make([]field.Element, width)
		for k := range readings[i] {
			readings[i][k] = field.New(uint64(i*width + k + 1))
		}
	}
	got, err := AggregateReadings(res, readings)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]field.Element, width)
	for i, delivered := range res.DeliveredToSink {
		if !delivered {
			continue
		}
		for k := range want {
			want[k] = want[k].Add(readings[i][k])
		}
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("aggregate[%d] = %v, want %v", k, got[k], want[k])
		}
	}
}

func TestAggregateReadingsErrors(t *testing.T) {
	if _, err := AggregateReadings(nil, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil result: %v", err)
	}
	res := &Result{DeliveredToSink: []bool{true, true}}
	if _, err := AggregateReadings(res, make([][]field.Element, 3)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("size mismatch: %v", err)
	}
	ragged := [][]field.Element{{field.One}, {field.One, field.One}}
	if _, err := AggregateReadings(res, ragged); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("ragged widths: %v", err)
	}
	// Zero-width vectors are a valid degenerate case.
	empty := [][]field.Element{{}, {}}
	sum, err := AggregateReadings(res, empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum) != 0 {
		t.Fatalf("zero-width aggregate = %v", sum)
	}
}
