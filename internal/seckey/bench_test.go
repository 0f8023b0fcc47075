package seckey

import (
	"fmt"
	"testing"

	"iotmpc/internal/field"
)

func benchKey(b *testing.B) Key {
	key, err := NewStore(MasterFromSeed(1)).PairKey(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	return key
}

func BenchmarkSealShare(b *testing.B) {
	key := benchKey(b)
	ctx := PacketContext{Round: 1, Sender: 1, Receiver: 2}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		ctx.Slot = uint32(i)
		if _, err := SealShare(key, ctx, field.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenShare(b *testing.B) {
	key := benchKey(b)
	ctx := PacketContext{Round: 1, Sender: 1, Receiver: 2, Slot: 9}
	sealed, err := SealShare(key, ctx, field.New(77))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := OpenShare(key, ctx, sealed); err != nil {
			b.Fatal(err)
		}
	}
}

// Vector sealing benchmarks, exported to CI as BENCH_seal.json: the win to
// track is SealVector(L) staying far below L×SealShare — one cipher setup,
// one CMAC pass, and one tag regardless of L — and the Link benchmarks
// staying far below the package-level calls, which prepare the key for
// every packet.

// benchVectorLens are the vector lengths the CI sealing bench sweeps: 1 is
// the scalar-equivalent case, 4 a typical multi-sensor reading, and 16
// shows the curve past the protocol's 14-element frame bound (seckey
// itself has no frame limit).
var benchVectorLens = []int{1, 4, 16}

func benchValues(l int) []field.Element {
	values := make([]field.Element, l)
	for i := range values {
		values[i] = field.New(uint64(i) * 0x9e3779b9)
	}
	return values
}

// benchSeal and benchOpen run a seal or open function over the benchmark
// vector lengths.
func benchSeal(b *testing.B, seal func(PacketContext, []field.Element) ([]byte, error)) {
	for _, l := range benchVectorLens {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			values := benchValues(l)
			ctx := PacketContext{Round: 1, Sender: 1, Receiver: 2}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				ctx.Slot = uint32(i)
				if _, err := seal(ctx, values); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchOpen(b *testing.B, key Key, open func(PacketContext, int, []byte) ([]field.Element, error)) {
	for _, l := range benchVectorLens {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			ctx := PacketContext{Round: 1, Sender: 1, Receiver: 2, Slot: 9}
			sealed, err := SealVector(key, ctx, benchValues(l))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := open(ctx, l, sealed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSealVector(b *testing.B) {
	key := benchKey(b)
	benchSeal(b, func(ctx PacketContext, values []field.Element) ([]byte, error) {
		return SealVector(key, ctx, values)
	})
}

func BenchmarkOpenVector(b *testing.B) {
	key := benchKey(b)
	benchOpen(b, key, func(ctx PacketContext, l int, sealed []byte) ([]field.Element, error) {
		return OpenVector(key, ctx, l, sealed)
	})
}

// BenchmarkLinkSealVector and BenchmarkLinkOpenVector seal and open under a
// Link prepared once, as rounds do; the CI sealing speedup gate compares
// them with BenchmarkSealVector at L=1.
func BenchmarkLinkSealVector(b *testing.B) {
	benchSeal(b, NewLink(benchKey(b)).SealVector)
}

func BenchmarkLinkOpenVector(b *testing.B) {
	key := benchKey(b)
	benchOpen(b, key, NewLink(key).OpenVector)
}

// BenchmarkSealScalarTimes is the straw man SealVector replaces: sealing an
// L-element reading as L independent scalar packets (L cipher setups, L CMAC
// passes, L tags). Divide by BenchmarkSealVector at the same L for the
// per-round batching factor.
func BenchmarkSealScalarTimes(b *testing.B) {
	key := benchKey(b)
	for _, l := range benchVectorLens {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			values := benchValues(l)
			ctx := PacketContext{Round: 1, Sender: 1, Receiver: 2}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				for k, v := range values {
					ctx.Slot = uint32(i*len(values) + k)
					if _, err := SealShare(key, ctx, v); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkPairKeyDerivation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		s := NewStore(MasterFromSeed(uint64(i)))
		if _, err := s.PairKey(i%40, (i+1)%40+1); err != nil {
			b.Fatal(err)
		}
	}
}
