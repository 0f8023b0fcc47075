package field

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// BasisCache memoizes Lagrange basis coefficients at zero, keyed by the
// evaluation-point set. Every reconstruction in an aggregation round — and
// every round of a Monte-Carlo sweep — interpolates over the same handful of
// public-point subsets, so after warm-up a reconstruction is just a dot
// product: no inversions, no basis products.
//
// The cache is safe for concurrent use; the parallel scenario runner hits it
// from every worker goroutine.
type BasisCache struct {
	mu      sync.RWMutex
	entries map[string][]Element
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// maxCacheEntries bounds the cache. Point sets are tiny (≤ n ≤ 45 elements)
// and real workloads touch a few dozen distinct sets, so the bound exists
// only to keep pathological callers from growing the map without limit.
const maxCacheEntries = 4096

// NewBasisCache returns an empty cache.
func NewBasisCache() *BasisCache {
	return &BasisCache{entries: make(map[string][]Element)}
}

// maxStackKeyPoints is the largest point set whose lookup key is built on
// the stack; larger sets (never seen in practice) build it on the heap.
const maxStackKeyPoints = 64

// appendKey appends the serialized point set to key. Element order
// matters: coefficients are positional, so [1,2] and [2,1] are distinct
// entries.
func appendKey(key []byte, xs []Element) []byte {
	for _, x := range xs {
		key = binary.LittleEndian.AppendUint64(key, uint64(x))
	}
	return key
}

// CoefficientsAtZero returns the Lagrange weights λᵢ with P(0) = Σ λᵢ·yᵢ for
// the given x coordinates, computing and caching them on first sight of the
// set. The returned slice is shared with the cache and MUST be treated as
// read-only; callers only ever feed it to Dot/MulAccVec, which is the point.
// A hit allocates nothing: the key is built on the stack and allocated as a
// string only when a new set is inserted.
func (c *BasisCache) CoefficientsAtZero(xs []Element) ([]Element, error) {
	var stack [8 * maxStackKeyPoints]byte
	key := appendKey(stack[:0], xs)
	c.mu.RLock()
	coeffs, ok := c.entries[string(key)]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return coeffs, nil
	}
	// Compute outside the lock; duplicate work on a race is harmless (both
	// goroutines derive the same coefficients).
	coeffs, err := LagrangeCoefficientsAtZero(xs)
	if err != nil {
		return nil, err
	}
	c.misses.Add(1)
	c.mu.Lock()
	if existing, ok := c.entries[string(key)]; ok {
		coeffs = existing // lost the race; keep the canonical slice
	} else {
		if len(c.entries) >= maxCacheEntries {
			// Evict an arbitrary entry rather than grow without bound.
			for k := range c.entries {
				delete(c.entries, k)
				break
			}
		}
		c.entries[string(key)] = coeffs
	}
	c.mu.Unlock()
	return coeffs, nil
}

// Stats returns the cumulative hit and miss counts.
func (c *BasisCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of cached point sets.
func (c *BasisCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// zeroBasis is the process-wide cache behind CachedCoefficientsAtZero.
var zeroBasis = NewBasisCache()

// CachedCoefficientsAtZero is CoefficientsAtZero on a shared process-wide
// cache — the entry point the Shamir hot path uses.
func CachedCoefficientsAtZero(xs []Element) ([]Element, error) {
	return zeroBasis.CoefficientsAtZero(xs)
}

// InterpolateAtZeroCached reconstructs P(0) through the shared coefficient
// cache: a warm call is one dot product. It is the drop-in fast path for
// InterpolateAtZero when many polynomials share an evaluation-point set.
func InterpolateAtZeroCached(points []Point) (Element, error) {
	if len(points) == 0 {
		return 0, ErrNoPoints
	}
	xs := make([]Element, len(points))
	ys := make([]Element, len(points))
	for i, pt := range points {
		xs[i] = pt.X
		ys[i] = pt.Y
	}
	coeffs, err := CachedCoefficientsAtZero(xs)
	if err != nil {
		return 0, err
	}
	return Dot(coeffs, ys)
}
