package main

import (
	"math"
	"sort"
)

// nearestRank returns the nearest-rank p-th percentile of xs: the smallest
// value with at least p% of the samples at or below it. xs need not be
// sorted; it is not modified. It returns NaN for an empty slice.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile among
// n sorted samples.
func rankIndex(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailPercentile picks the highest whole nearest-rank percentile that
// leaves at least minBeyond of n samples above its rank. With fewer than
// 2*minBeyond samples no percentile at or above the median qualifies, and
// the median is returned with ok false.
func tailPercentile(n int) (p int, ok bool) {
	for p = 99; p >= 50; p-- {
		if n-(rankIndex(n, float64(p))+1) >= minBeyond {
			return p, true
		}
	}
	return 50, false
}

// throughput is simulated work per host second over a whole timed phase:
// total simulated DRAM cycles divided by the phase's wall seconds, in
// millions. Computing it over the phase (not per op) averages out host
// speed changes within a run.
func throughput(cycles int64, wallSeconds float64) float64 {
	if wallSeconds <= 0 {
		return 0
	}
	return float64(cycles) / wallSeconds / 1e6
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return nearestRank(xs, 50) }

// slope is the least-squares slope of ys over xs; 0 with fewer than two
// points or no spread in xs.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
