package minicast

import (
	"math/rand"
	"reflect"
	"testing"

	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
	"iotmpc/internal/topology"
)

// TestRunArenaMatchesRun pins the arena path bit-for-bit to the allocating
// path (a nil arena) across reused rounds: same RNG stream in, same Result out (including
// the ledger credits), RNGs still aligned afterwards.
func TestRunArenaMatchesRun(t *testing.T) {
	tb := topology.FlockLab()
	ch, err := tb.Channel(phy.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	n := tb.NumNodes()
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Owner: i, Dst: -1}
	}
	cfg := Config{Channel: ch, Initiator: 0, NTX: 3, Items: items, PayloadBytes: 16}

	plain := rand.New(rand.NewSource(77))
	arenaRNG := rand.New(rand.NewSource(77))
	var arena sim.Arena
	for round := 0; round < 10; round++ {
		wantLedger := sim.NewRadioLedger(n)
		want, err := RunArena(cfg, plain, wantLedger, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotLedger := sim.NewRadioLedger(n)
		arena.Reset()
		got, err := RunArena(cfg, arenaRNG, gotLedger, nil, &arena)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d: arena result diverged", round)
		}
		for node := 0; node < n; node++ {
			if wantLedger.OnTime(node) != gotLedger.OnTime(node) {
				t.Fatalf("round %d: node %d radio credit diverged", round, node)
			}
		}
	}
	if plain.Int63() != arenaRNG.Int63() {
		t.Fatal("RNG streams diverged between the allocating and arena paths")
	}
}
