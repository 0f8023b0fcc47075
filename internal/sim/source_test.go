package sim

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestSeedPowers recomputes the multiplier powers Seed steps by.
func TestSeedPowers(t *testing.T) {
	m := big.NewInt(int32max)
	for _, tc := range []struct {
		exp  int64
		want uint64
	}{{1, seedMul}, {2, seedMul2}, {3, seedMul3}, {20, seedMul20}} {
		got := new(big.Int).Exp(big.NewInt(seedMul), big.NewInt(tc.exp), m).Uint64()
		if got != tc.want {
			t.Errorf("48271^%d mod 2^31-1 = %d, constant is %d", tc.exp, got, tc.want)
		}
	}
}

// TestMulMod31 checks the double Mersenne fold against big.Int on the
// extremes of its domain.
func TestMulMod31(t *testing.T) {
	m := big.NewInt(int32max)
	vals := []uint64{1, 2, seedMul, seedMul2, seedMul3, 1 << 30, int32max - 2, int32max - 1}
	for _, a := range vals {
		for _, b := range vals {
			want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			want.Mod(want, m)
			if got := mulMod31(a, b); got != want.Uint64() {
				t.Fatalf("mulMod31(%d, %d) = %d, want %d", a, b, got, want.Uint64())
			}
		}
	}
}

// edgeSeeds are the seeds where math/rand's seed normalization branches:
// multiples of 2³¹−1 (which become 89482311), negatives, and the int64
// extremes.
var edgeSeeds = []int64{
	0, 1, -1, seedZero, -seedZero,
	int32max, -int32max, 2 * int32max, -2 * int32max, int32max << 32, -int32max << 32,
	int32max - 1, int32max + 1, -(int32max - 1), -(int32max + 1),
	1 << 31, -1 << 31, 1 << 62,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
}

// TestSourceMatchesMathRandEdgeSeeds draws past a full register turn from
// every edge seed, and enough normal and exponential variates to reach the
// ziggurat tails, and requires every draw to equal math/rand's.
func TestSourceMatchesMathRandEdgeSeeds(t *testing.T) {
	draws := 20000
	if testing.Short() {
		draws = 4000
	}
	normTails, expTails := 0, 0
	for _, seed := range edgeSeeds {
		got, want := NewSeededRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 3*rngLen; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, want %#x", seed, i, g, w)
			}
		}
		for i := 0; i < draws; i++ {
			g, w := got.NormFloat64(), want.NormFloat64()
			if g != w {
				t.Fatalf("seed %d: NormFloat64 draw %d = %v, want %v", seed, i, g, w)
			}
			if math.Abs(g) > 3.442619855899 {
				normTails++
			}
			g, w = got.ExpFloat64(), want.ExpFloat64()
			if g != w {
				t.Fatalf("seed %d: ExpFloat64 draw %d = %v, want %v", seed, i, g, w)
			}
			if g > 7.69711747013104972 {
				expTails++
			}
		}
	}
	if normTails == 0 || expTails == 0 {
		t.Fatalf("no tail draws reached (normal %d, exponential %d)", normTails, expTails)
	}
}

// TestNewRNGMatchesMathRand is the differential test over derived stream
// seeds: 2,000 streams, each drawn past a full register turn through the
// mixed Rand methods.
func TestNewRNGMatchesMathRand(t *testing.T) {
	streams := 2000
	if testing.Short() {
		streams = 200
	}
	for i := 0; i < streams; i++ {
		got := NewRNG(int64(i), uint64(i)*7)
		want := rand.New(rand.NewSource(DeriveSeed(int64(i), uint64(i)*7)))
		for j := 0; j < rngLen+100; j++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("stream %d: Int63 draw %d = %d, want %d", i, j, g, w)
			}
		}
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("stream %d: Float64 = %v, want %v", i, g, w)
		}
		if g, w := got.Intn(1000), want.Intn(1000); g != w {
			t.Fatalf("stream %d: Intn = %d, want %d", i, g, w)
		}
	}
}

// FuzzSourceMatchesMathRand runs an op script against source and against a
// math/rand source seeded alike, and requires every result to agree. Ops
// cover each Rand method the simulation uses, Read at arbitrary (odd)
// lengths so buffered bytes straddle other calls, batches of normal and
// exponential draws long enough to reach the ziggurat tails, and Seed
// mid-stream.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 7, 6, 9, 8, 3})
	f.Add(int64(seedZero), []byte{8, 7, 0, 8, 13, 4, 8, 1, 9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 4})
	f.Add(int64(math.MinInt64), []byte{1, 0xff, 2, 0xff, 1, 0xff, 2, 0xff, 8, 5})
	f.Add(int64(math.MaxInt64), []byte{5, 0, 0, 0, 0x80, 6, 1, 2, 3, 4, 5, 6, 7, 0x40, 10, 3})
	f.Add(int64(-int32max), []byte{9, 0, 0, 0, 0, 0, 0, 0, 0, 4, 9, 0x7f, 0xff, 0xff, 0xff, 0, 0, 0, 0, 4})
	f.Add(int64(12345), bytes.Repeat([]byte{1, 0xff, 2, 0xff, 8, 3}, 20))
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		got, want := NewSeededRNG(seed), rand.New(rand.NewSource(seed))
		arg := func(n int) []byte {
			b := make([]byte, n)
			m := copy(b, script)
			script = script[m:]
			return b
		}
		for step := 0; len(script) > 0; step++ {
			op := script[0] % 11
			script = script[1:]
			ok := true
			switch op {
			case 0:
				ok = got.Float64() == want.Float64()
			case 1, 2:
				n := 1 + int(arg(1)[0])*16
				for i := 0; i < n && ok; i++ {
					if op == 1 {
						ok = got.NormFloat64() == want.NormFloat64()
					} else {
						ok = got.ExpFloat64() == want.ExpFloat64()
					}
				}
			case 3:
				ok = got.Int63() == want.Int63()
			case 4:
				ok = got.Uint64() == want.Uint64()
			case 5:
				n := int(binary.LittleEndian.Uint32(arg(4))&math.MaxInt32) + 1
				ok = got.Intn(n) == want.Intn(n)
			case 6:
				n := int64(binary.LittleEndian.Uint64(arg(8))&math.MaxInt64) | 1
				ok = got.Int63n(n) == want.Int63n(n)
			case 7:
				n := int(arg(1)[0]) % 64
				g, w := got.Perm(n), want.Perm(n)
				for i := range g {
					ok = ok && g[i] == w[i]
				}
			case 8:
				n := int(arg(1)[0]) % 32
				g, w := make([]byte, n), make([]byte, n)
				got.Read(g)
				want.Read(w)
				ok = bytes.Equal(g, w)
			case 9:
				seed := int64(binary.LittleEndian.Uint64(arg(8)))
				got.Seed(seed)
				want.Seed(seed)
			case 10:
				ok = got.Uint32() == want.Uint32() && got.Float32() == want.Float32()
			}
			if !ok {
				t.Fatalf("seed %d: op %d at step %d diverged from math/rand", seed, op, step)
			}
		}
	})
}

// BenchmarkReseedRNG reseeds a NewRNG generator, the per-stream cost every
// trial and bootstrap probe pays; BenchmarkReseedRNGReference does the same
// over a math/rand source. CI's reseed speedup gate compares the two.
func BenchmarkReseedRNG(b *testing.B) {
	rng := NewRNG(1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ReseedRNG(rng, 1, uint64(i))
	}
}

func BenchmarkReseedRNGReference(b *testing.B) {
	rng := rand.New(rand.NewSource(0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng.Seed(DeriveSeed(1, uint64(i)))
	}
}
