package field

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func TestBasisCacheHitsAndMisses(t *testing.T) {
	c := NewBasisCache()
	xs := []Element{New(1), New(2), New(3)}

	first, err := c.CoefficientsAtZero(xs)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("after first call: hits=%d misses=%d, want 0/1", hits, misses)
	}
	second, err := c.CoefficientsAtZero(xs)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("after second call: hits=%d misses=%d, want 1/1", hits, misses)
	}
	// A warm hit returns the canonical cached slice, not a recomputation.
	if &first[0] != &second[0] {
		t.Fatal("cache hit returned a different slice")
	}

	// A different set — including a permutation of the same elements — is a
	// distinct entry, because coefficients are positional.
	if _, err := c.CoefficientsAtZero([]Element{New(3), New(2), New(1)}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("after permuted set: hits=%d misses=%d, want 1/2", hits, misses)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
}

func TestBasisCacheMatchesUncached(t *testing.T) {
	c := NewBasisCache()
	xs := []Element{New(2), New(5), New(11), New(17)}
	want, err := LagrangeCoefficientsAtZero(xs)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // miss then hit
		got, err := c.CoefficientsAtZero(xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: coeff[%d] = %v, want %v", round, i, got[i], want[i])
			}
		}
	}
}

func TestBasisCacheErrors(t *testing.T) {
	c := NewBasisCache()
	if _, err := c.CoefficientsAtZero(nil); !errors.Is(err, ErrNoPoints) {
		t.Fatalf("empty set: %v", err)
	}
	if _, err := c.CoefficientsAtZero([]Element{New(4), New(4)}); !errors.Is(err, ErrDuplicateX) {
		t.Fatalf("duplicate x: %v", err)
	}
	// Failed computations must not be cached.
	if c.Len() != 0 {
		t.Fatalf("error results were cached: %d entries", c.Len())
	}
}

func TestInterpolateAtZeroCachedMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		p, err := NewRandomPoly(randomCanonical(rng), 6, rng)
		if err != nil {
			t.Fatal(err)
		}
		points := make([]Point, 7)
		for i := range points {
			x := New(uint64(i + 1))
			points[i] = Point{X: x, Y: p.Eval(x)}
		}
		want, err := InterpolateAtZero(points)
		if err != nil {
			t.Fatal(err)
		}
		got, err := InterpolateAtZeroCached(points)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: cached %v, direct %v", trial, got, want)
		}
	}
	if _, err := InterpolateAtZeroCached(nil); !errors.Is(err, ErrNoPoints) {
		t.Fatalf("empty points: %v", err)
	}
}

func TestBasisCacheConcurrent(t *testing.T) {
	c := NewBasisCache()
	want, err := LagrangeCoefficientsAtZero([]Element{New(1), New(2), New(3), New(4)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				xs := []Element{New(1), New(2), New(3), New(4)}
				got, err := c.CoefficientsAtZero(xs)
				if err != nil {
					t.Error(err)
					return
				}
				for k := range want {
					if got[k] != want[k] {
						t.Errorf("goroutine %d: coeff[%d] = %v, want %v", g, k, got[k], want[k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if hits, misses := c.Stats(); hits+misses != 8*200 {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, 8*200)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
}

// TestBasisCacheWarmHitAllocatesNothing pins the hot-path contract: a
// lookup of a cached point set builds its key on the stack, so every
// reconstruction after the first on a point set allocates nothing here.
func TestBasisCacheWarmHitAllocatesNothing(t *testing.T) {
	c := NewBasisCache()
	xs := []Element{New(1), New(4), New(9), New(16)}
	if _, err := c.CoefficientsAtZero(xs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.CoefficientsAtZero(xs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm hit allocated %.1f times, want 0", allocs)
	}
	if hits, misses := c.Stats(); misses != 1 || hits < 100 {
		t.Fatalf("stats: %d hits, %d misses; want >= 100 hits and 1 miss", hits, misses)
	}
}
