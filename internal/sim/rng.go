package sim

import "math/rand"

// RNG stream derivation. Experiments need many independent, reproducible
// randomness streams (one per trial, per protocol phase, per purpose) all
// rooted in a single user-supplied seed. DeriveSeed mixes a root seed with a
// stream label using the SplitMix64 finalizer, whose avalanche behavior keeps
// nearby labels uncorrelated.

// DeriveSeed returns a child seed for the given stream label.
func DeriveSeed(root int64, stream uint64) int64 {
	z := uint64(root) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z = z ^ (z >> 31)
	return int64(z)
}

// NewRNG returns a rand.Rand for the given root seed and stream label.
func NewRNG(root int64, stream uint64) *rand.Rand {
	return NewSeededRNG(DeriveSeed(root, stream))
}

// NewSeededRNG returns a rand.Rand that draws exactly what
// rand.New(rand.NewSource(seed)) draws, over a source that seeds several
// times faster (see source).
func NewSeededRNG(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// ReseedRNG resets rng to the stream NewRNG(root, stream) returns: Seed
// restarts the source and drops any bytes buffered by Read, so a pooled
// *rand.Rand replays a fresh one draw for draw without allocating another
// ~5 KB source. Generators built by NewRNG reseed several times faster
// than ones over a math/rand source.
func ReseedRNG(rng *rand.Rand, root int64, stream uint64) {
	rng.Seed(DeriveSeed(root, stream))
}
