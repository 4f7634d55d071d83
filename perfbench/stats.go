package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail is reported at, highest first.
// The reported tail is the highest one with at least minBeyond samples
// above it, so a tail is never read off a handful of outliers.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it.
// xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(p, len(s))-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples:
// ceil(p/100 * n), clamped to [1, n]. The small epsilon keeps products such
// as 99.9/100 * 10000 from rounding up past their exact integer value.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// tailPercentile picks the highest ladder percentile that leaves at least
// minBeyond of n samples strictly beyond its nearest rank. ok is false when
// even the median leaves fewer than minBeyond samples beyond it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// median is the 50th nearest-rank percentile of xs, except that an even
// count averages the two middle samples (the usual median, used for
// per-pass aggregates where only a few values exist).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// lowest and highest return the extreme samples of a non-empty xs.
func lowest(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

func highest(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}
