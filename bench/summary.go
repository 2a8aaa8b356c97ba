package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// quantile returns the q-quantile of xs with the definition of Python's
// statistics.quantiles (method "exclusive"), the one the benchmark's spread
// rule is stated in, clamped to the sample range. It returns NaN for no
// samples.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(n+1) // 1-based position
	if h <= 1 {
		return s[0]
	}
	if h >= float64(n) {
		return s[n-1]
	}
	lo := int(h)
	return s[lo-1] + (h-float64(lo))*(s[lo]-s[lo-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPermille is the highest of the usual reporting percentiles, in
// per mille, that still has at least ten of n samples beyond it, or 0 when
// even the median has fewer.
func tailPermille(n int) int {
	for _, p := range []int{999, 990, 950, 900, 750, 500} {
		if n*(1000-p) >= 10*1000 {
			return p
		}
	}
	return 0
}

// geomean is the geometric mean of positive values; NaN otherwise, which
// the run reports as a failure.
func geomean(xs []float64) float64 {
	g, err := stats.Geomean(xs)
	if err != nil {
		return math.NaN()
	}
	return g
}

// ratio is a/b, or 0 when b is 0: a rate over an event the workload never
// produced reads as zero, not as a division error.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
