package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs: the smallest
// sample with at least q·n samples at or below it. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	return s[quantileRank(len(s), q)-1]
}

// quantileRank is the 1-based nearest rank of the q-quantile of n
// samples.
func quantileRank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie strictly above the nearest-rank
// q-quantile's position.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - quantileRank(n, q)
}

// minSamplesFor is the smallest sample count that leaves at least k
// samples beyond the nearest-rank q-quantile.
func minSamplesFor(q float64, k int) int {
	n := 1
	for beyond(n, q) < k {
		n++
	}
	return n
}

// geomean returns the geometric mean of positive xs (NaN when empty or
// when any value is not positive).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// classQuantileGeomean combines per-class latency percentiles: q of
// each class separately (the median for q = 0.5), then the geometric
// mean across classes. Pooling ops of very different sizes would put
// the pooled percentile on a class boundary, where it jumps between
// runs; per-class percentiles stay inside one distribution.
func classQuantileGeomean(byClass map[string][]float64, q float64) float64 {
	vals := make([]float64, 0, len(byClass))
	for _, c := range sortedKeys(byClass) {
		if q == 0.5 {
			vals = append(vals, median(byClass[c]))
		} else {
			vals = append(vals, quantile(byClass[c], q))
		}
	}
	return geomean(vals)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
