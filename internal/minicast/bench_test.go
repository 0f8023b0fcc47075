package minicast

import (
	"math/rand"
	"testing"

	"iotmpc/internal/phy"
	"iotmpc/internal/topology"
)

func benchChannel(b *testing.B, top topology.Topology) *phy.LogDistance {
	b.Helper()
	ch, err := top.Channel(phy.DefaultParams(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return ch
}

// BenchmarkAllToAllFlockLab measures one all-to-all round on the 26-node
// model at S4's NTX.
func BenchmarkAllToAllFlockLab(b *testing.B) {
	ch := benchChannel(b, topology.FlockLab())
	cfg := Config{
		Channel:      ch,
		Initiator:    0,
		NTX:          6,
		Items:        allToAllItems(ch.NumNodes()),
		PayloadBytes: 20,
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunArena(cfg, rng, nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharingChainDCube measures the worst-case chain of the paper: the
// naive S3 sharing phase on D-Cube (45×44 sub-slots at full-coverage NTX).
func BenchmarkSharingChainDCube(b *testing.B) {
	ch := benchChannel(b, topology.DCube())
	n := ch.NumNodes()
	items := make([]Item, 0, n*(n-1))
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst {
				items = append(items, Item{Owner: src, Dst: dst})
			}
		}
	}
	cfg := Config{
		Channel:      ch,
		Initiator:    0,
		NTX:          16,
		Items:        items,
		PayloadBytes: 21,
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunArena(cfg, rng, nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
