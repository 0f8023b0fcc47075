package sim

import (
	"bytes"
	"testing"
)

// TestReseedRNGMatchesNewRNG reseeds a used stream — left mid-way through a
// Read, with bytes buffered — and requires it to replay a fresh NewRNG
// stream exactly, Read bytes included.
func TestReseedRNGMatchesNewRNG(t *testing.T) {
	reused := NewRNG(7, 0)
	reused.Read(make([]byte, 3))
	reused.NormFloat64()
	for _, stream := range []uint64{1, 2, 1 << 40} {
		fresh := NewRNG(99, stream)
		ReseedRNG(reused, 99, stream)
		a, b := make([]byte, 13), make([]byte, 13)
		fresh.Read(a)
		reused.Read(b)
		if !bytes.Equal(a, b) {
			t.Fatalf("stream %d: Read diverged after reseed", stream)
		}
		for i := 0; i < 100; i++ {
			if fresh.Int63() != reused.Int63() || fresh.NormFloat64() != reused.NormFloat64() {
				t.Fatalf("stream %d: draw %d diverged after reseed", stream, i)
			}
		}
		reused.Read(make([]byte, 5)) // leave bytes buffered for the next reseed
	}
}
