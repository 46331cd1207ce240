package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidates for a summary's tail, highest
// first: the summary reports the highest one that still has at least
// minBeyond samples above it, so a tail figure is never one lucky or
// unlucky sample.
var tailPercentiles = []float64{99.9, 99, 90}

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// quantile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. Unlike metrics.Percentile it returns NaN for an empty sample, so
// an unmeasured metric is refused rather than reported as 0, and its
// rank agrees with the tail rule in summarize.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	// The epsilon keeps float rounding (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// summary describes a sample of timings: its size, median, and the
// highest tail percentile the sample supports.
type summary struct {
	N     int
	P50   float64
	TailP float64 // 0 when fewer than minBeyond samples lie beyond the median
	Tail  float64
}

// summarize describes xs.
func summarize(xs []float64) summary {
	out := summary{N: len(xs), P50: quantile(xs, 50)}
	for _, p := range tailPercentiles {
		if len(xs)-rank(len(xs), p) >= minBeyond {
			out.TailP, out.Tail = p, quantile(xs, p)
			break
		}
	}
	return out
}
