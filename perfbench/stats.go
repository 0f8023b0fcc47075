package main

import (
	"math"
	"sort"
)

// quantile is the nearest-rank q-quantile of xs (0 < q <= 1): the smallest
// sample with at least q·n samples at or below it. NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the midpoint of the sorted samples (mean of the two middle
// ones for an even count). NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailPercentile picks the percentile a run of n samples can report
// honestly: the highest whole percentile up to 90 that leaves at least
// minBeyond samples above it (nearest rank). p90 needs 100 samples. Below
// 20 samples no percentile above the median qualifies, and it falls back
// to the median: the maximum of a handful of samples is not a tail figure
// that repeats.
func tailPercentile(n int) int {
	for p := 90; p >= 50; p-- {
		if n-(p*n+99)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// tail reports xs at tailPercentile(len(xs)); at p50 it is the median,
// midpoint included, so a run too short for a tail reports the same figure
// as its median.
func tail(xs []float64) float64 {
	p := tailPercentile(len(xs))
	if p == 50 {
		return median(xs)
	}
	return quantile(xs, float64(p)/100)
}

// remainder is the part of a measured whole that the attributed shares do
// not explain: 1 − Σ shares. It is negative when the per-layer unit costs
// over-explain the whole.
func remainder(shares ...float64) float64 {
	r := 1.0
	for _, s := range shares {
		r -= s
	}
	return r
}
