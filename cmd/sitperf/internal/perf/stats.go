package perf

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile. A tail
// percentile resting on fewer is one unlucky sample away from any value, so
// the run is refused as mis-sized instead of reporting it.
const minBeyond = 10

// Percentile returns the nearest-rank p-quantile (0 < p < 1) of xs: the
// smallest sample with at least p·n samples at or below it. It refuses when
// fewer than minBeyond samples lie strictly after that rank.
func Percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", 100*p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// Mean returns the arithmetic mean of xs, or 0 for no samples.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples. Unlike Percentile it has no
// sample-count guard: it summarises repeated set-ups, not a latency tail.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// QError is the symmetric estimation error (est+1)/(true+1) or its inverse,
// whichever is ≥ 1. The +1 smoothing is the one the lifecycle drift detector
// applies to feedback, so the benchmark and the program grade an estimate
// the same way.
func QError(est, truth float64) float64 {
	a, b := est+1, truth+1
	if a <= 0 || b <= 0 {
		return 1
	}
	if a < b {
		return b / a
	}
	return a / b
}

// finite reports the first metric that is not a finite number.
func finite(m map[string]float64) error {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", k, v)
		}
	}
	return nil
}
