package perf

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so Percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 0.50, 50},   // rank ceil(50) = 50
		{101, 0.50, 51},   // rank ceil(50.5) = 51
		{1000, 0.99, 990}, // 10 samples beyond: just enough
		{2000, 0.90, 1800},
		{11, 0.01, 1}, // rank never below 1
	} {
		got, err := Percentile(seq(c.n), c.p)
		if err != nil {
			t.Errorf("p%g of %d: %v", 100*c.p, c.n, err)
			continue
		}
		if got != c.want {
			t.Errorf("p%g of %d = %v, want %v", 100*c.p, c.n, got, c.want)
		}
	}
}

func TestPercentileRefusesFewerThanTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{
		{999, 0.99}, // rank 990 leaves 9 beyond
		{99, 0.90},  // rank 90 leaves 9 beyond
		{10, 0.50},
		{0, 0.50},
	} {
		if v, err := Percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%g of %d = %v, want a mis-sized error", 100*c.p, c.n, v)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// QError must grade an estimate as the lifecycle drift detector does:
// symmetric, at least 1, with +1 smoothing so empty results stay finite.
func TestQErrorSmoothing(t *testing.T) {
	for _, c := range []struct{ est, truth, want float64 }{
		{0, 0, 1},
		{9, 0, 10},
		{0, 9, 10},
		{99, 9, 10},
		{9, 99, 10},
		{5, 5, 1},
		{-1, 5, 1}, // a non-positive smoothed estimate is not graded
	} {
		if got := QError(c.est, c.truth); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("QError(%v, %v) = %v, want %v", c.est, c.truth, got, c.want)
		}
	}
}
