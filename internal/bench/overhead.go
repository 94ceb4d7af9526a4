package bench

import (
	"fmt"
	"math"
	"time"

	"condsel/internal/core"
)

// OverheadPairs is the number of timed pairs in every overhead comparison.
// A pair is two rounds over all items, one bare-first and one
// managed-first, so each variant is timed 2·OverheadPairs times per item.
const OverheadPairs = 32

// Overhead is the outcome of one paired A/B comparison between a bare call
// and the same call behind a managing layer: the ladder, the lifecycle
// manager, the service front end or the cluster node. Every overhead report
// embeds it, so its fields appear at the report's top level.
type Overhead struct {
	// BareNsPerOp and ManagedNsPerOp are the means over items of each
	// item's fastest call across all rounds: a GC pause or scheduler
	// hiccup then perturbs one sample of one item instead of a variant's
	// aggregate.
	BareNsPerOp    float64 `json:"bare_ns_per_op"`
	ManagedNsPerOp float64 `json:"managed_ns_per_op"`
	// OverheadPct is (ManagedNsPerOp − BareNsPerOp) / BareNsPerOp × 100,
	// the figure CI gates.
	OverheadPct float64 `json:"overhead_pct"`

	// The spread: 25th, 50th and 75th percentiles over the pairs of
	// (Σ managed / Σ bare − 1) × 100, each sum taken over both rounds of
	// the pair.
	Pairs      int     `json:"pairs"`
	PairP25Pct float64 `json:"pair_overhead_p25_pct"`
	PairP50Pct float64 `json:"pair_overhead_median_pct"`
	PairP75Pct float64 `json:"pair_overhead_p75_pct"`
}

// String renders the comparison as the one line every overhead report
// prints.
func (o Overhead) String() string {
	us := func(ns float64) time.Duration { return time.Duration(ns).Round(time.Microsecond / 10) }
	return fmt.Sprintf("bare %v  managed %v  overhead %+.2f%%  (%d pairs: p25 %+.2f%%  median %+.2f%%  p75 %+.2f%%)",
		us(o.BareNsPerOp), us(o.ManagedNsPerOp), o.OverheadPct,
		o.Pairs, o.PairP25Pct, o.PairP50Pct, o.PairP75Pct)
}

// measureOverhead compares bare(i) with managed(i) over items 0..n-1. Each
// variant returns its answer. One untimed warm-up call of each variant per
// item comes first, and any differing answer is an error before anything
// is timed: the managing layers promise bit-identical answers when nothing
// fails. Then OverheadPairs pairs of rounds are timed call by call. The
// variant order flips between the two rounds of a pair, because whichever
// runs second on an item inherits warm caches, and the histogram-join cache
// is reset before every round, so the two orders split the cold calls
// evenly. A variant that draws a pooled core.Run must release it, as
// served code does: a run one variant keeps sends the other variant's next
// NewRun to a fresh, unwarmed run.
func measureOverhead(n int, bare, managed func(i int) float64) (Overhead, error) {
	for i := 0; i < n; i++ {
		if b, m := bare(i), managed(i); b != m {
			return Overhead{}, fmt.Errorf("item %d: managed answer %v differs from bare answer %v", i, m, b)
		}
	}
	bmin, mmin := make([]float64, n), make([]float64, n)
	for i := range bmin {
		bmin[i], mmin[i] = math.Inf(1), math.Inf(1)
	}
	timed := func(f func(int) float64, i int, min []float64) float64 {
		start := time.Now()
		f(i)
		ns := float64(time.Since(start).Nanoseconds())
		min[i] = math.Min(min[i], ns)
		return ns
	}
	ratios := make([]float64, OverheadPairs)
	for p := range ratios {
		var bsum, msum float64
		for _, bareFirst := range [2]bool{true, false} {
			core.ResetHistJoinCache()
			for i := 0; i < n; i++ {
				if bareFirst {
					bsum += timed(bare, i, bmin)
					msum += timed(managed, i, mmin)
				} else {
					msum += timed(managed, i, mmin)
					bsum += timed(bare, i, bmin)
				}
			}
		}
		ratios[p] = 100 * (msum/bsum - 1)
	}

	o := Overhead{Pairs: OverheadPairs}
	for i := range bmin {
		o.BareNsPerOp += bmin[i] / float64(n)
		o.ManagedNsPerOp += mmin[i] / float64(n)
	}
	o.OverheadPct = 100 * (o.ManagedNsPerOp - o.BareNsPerOp) / o.BareNsPerOp
	o.PairP25Pct = percentile(ratios, 0.25)
	o.PairP50Pct = percentile(ratios, 0.50)
	o.PairP75Pct = percentile(ratios, 0.75)
	return o, nil
}
