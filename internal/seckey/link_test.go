package seckey

import (
	"fmt"
	"testing"
)

// TestLinkAllocs bounds a prepared link's per-packet allocations: the
// returned slice plus one working block, independent of the vector
// length.
func TestLinkAllocs(t *testing.T) {
	link := NewLink(fuzzKey())
	for _, l := range []int{1, 4, 14} {
		t.Run(fmt.Sprintf("L=%d", l), func(t *testing.T) {
			values := benchValues(l)
			ctx := PacketContext{Round: 1, Sender: 1, Receiver: 2, Slot: 9}
			sealed, err := link.SealVector(ctx, values)
			if err != nil {
				t.Fatal(err)
			}
			seal := testing.AllocsPerRun(100, func() {
				if _, err := link.SealVector(ctx, values); err != nil {
					t.Fatal(err)
				}
			})
			open := testing.AllocsPerRun(100, func() {
				if _, err := link.OpenVector(ctx, l, sealed); err != nil {
					t.Fatal(err)
				}
			})
			if seal > 2 || open > 2 {
				t.Errorf("allocs per call: seal %v, open %v; want <= 2 each", seal, open)
			}
		})
	}
}
