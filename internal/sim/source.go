package sim

import "math/rand"

// source is a rand.Source64 that replays math/rand's generator draw for
// draw: the additive lagged Fibonacci generator of Mitchell and Reeds, 607
// 64-bit registers with tap 273, whose registers are filled from the
// Park–Miller sequence x ↦ 48271·x mod (2³¹−1) XORed with a fixed "cooked"
// table. Only the filling differs. math/rand's Seed steps the sequence
// 1,841 times with Schrage's division-based method, and every trial and
// bootstrap probe reseeds a stream, so that filling was about a quarter of
// the CPU profile of a distributed sweep. Here each step is a 64-bit multiply folded
// modulo the Mersenne prime 2³¹−1, and the three values a register takes
// are independent multiplies of the previous register's last value by the
// precomputed A, A² and A³.
//
// The cooked table is not copied from the Go tree: init recovers it from
// math/rand itself (see recoverCooked), so the two generators cannot drift
// apart silently. FuzzSourceMatchesMathRand compares them call for call.
type source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// seedZero replaces a seed ≡ 0 mod 2³¹−1, as math/rand does.
	seedZero = 89482311

	// Powers of the Park–Miller multiplier 48271 mod 2³¹−1 (TestSeedPowers
	// recomputes them): math/rand steps 20 times before the first register,
	// then three times per register.
	seedMul   = 48271
	seedMul2  = 182605794
	seedMul3  = 1291394886
	seedMul20 = 2075782095
)

// rngCooked is math/rand's cooked table, recovered at init.
var rngCooked [rngLen]int64

func init() { recoverCooked() }

// mulMod31 returns a·b mod 2³¹−1 for a, b < 2³¹. Folding the 62-bit
// product twice (2³¹ ≡ 1) leaves a value ≤ 2³¹−1 that equals 2³¹−1 only
// when a·b ≡ 0, which a Park–Miller state never is.
func mulMod31(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	return p&int32max + p>>31
}

// Seed fills the registers exactly as math/rand's Seed does for the same
// seed.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedZero
	}
	x := mulMod31(uint64(seed), seedMul20)
	for i := range s.vec {
		a := mulMod31(x, seedMul)
		b := mulMod31(x, seedMul2)
		x = mulMod31(x, seedMul3)
		s.vec[i] = int64(a<<40^b<<20^x) ^ rngCooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// recoverCooked derives rngCooked from math/rand. The first rngLen outputs
// of a freshly seeded standard source write every register once, so they
// are its whole state after rngLen steps; undoing those steps in reverse
// gives the registers Seed left, and XORing out the seed's Park–Miller
// share (what source.Seed writes while rngCooked is still zero) leaves the
// cooked table.
func recoverCooked() {
	std := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]int64
	tap, feed := 0, rngLen-rngTap
	for range rngLen {
		tap = (tap + rngLen - 1) % rngLen
		feed = (feed + rngLen - 1) % rngLen
		vec[feed] = int64(std.Uint64())
	}
	for range rngLen {
		vec[feed] -= vec[tap]
		tap = (tap + 1) % rngLen
		feed = (feed + 1) % rngLen
	}
	var share source
	share.Seed(1)
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ share.vec[i]
	}
}
