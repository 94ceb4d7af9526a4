package core

import (
	"fmt"
	"math/bits"
	"testing"

	"condsel/internal/engine"
)

// TestCachedPathZeroAllocs is the in-repo half of the CI alloc-gate: once
// the cross-query cache is warm and the run pool primed, a full estimate —
// NewRun, GetSelectivity on every predicate, EstimateCardinality, Release —
// must allocate nothing, for both packed-key cache levels (selectivity
// entries and histogram joins).
func TestCachedPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and randomizes sync.Pool reuse; allocation counts are only meaningful without -race")
	}
	for _, n := range []int{6, 8, 10} {
		// The singleton-head search is the only one; the suffix keeps the
		// subtest names that CI logs and test histories already know.
		t.Run(fmt.Sprintf("n=%d/mode=singleton", n), func(t *testing.T) {
			c := dpBenchCaseN(n)
			est := NewEstimator(c.cat, c.pool, Diff{})
			est.Cache = NewSelCache(1 << 14)
			full := c.q.All()
			// Warm pass 1 computes and publishes; pass 2 reaches cached
			// steady state (arena/pool sizes settled).
			for i := 0; i < 2; i++ {
				r := est.NewRun(c.q)
				r.GetSelectivity(full)
				r.EstimateCardinality(full)
				r.Release()
			}
			allocs := testing.AllocsPerRun(100, func() {
				r := est.NewRun(c.q)
				r.EstimateCardinality(full)
				r.Release()
			})
			if allocs != 0 {
				t.Fatalf("cached estimate path allocated %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// warmRes is the value TestWarmRunStateAllocatesNothing stores in the memo.
var warmRes = &decomp{Result: Result{Sel: 1}}

// TestWarmRunStateAllocatesNothing is the uncached search's half of the
// alloc-gate: once one full uncached run of a query has grown a pooled
// run's lookup state, the next run's lookups — component index, candidate
// matcher (candidates and expression masks), and Get/Put on the subset
// memo — allocate nothing. What the DP still allocates is its winners.
func TestWarmRunStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and randomizes sync.Pool reuse; allocation counts are only meaningful without -race")
	}
	c := dpBenchCaseN(8)
	est := NewEstimator(c.cat, c.pool, Diff{})
	full := c.q.All()
	r := est.NewRun(c.q)
	r.GetSelectivity(full)
	r.Release()

	var sink int
	allocs := testing.AllocsPerRun(20, func() {
		r := est.NewRun(c.q)
		comps, m := r.compsFor(), r.matcherFor()
		for set := engine.PredSet(1); set <= full; set++ {
			if _, ok := r.memo.Get(0, uint64(set)); ok {
				continue
			}
			sink += len(comps.Components(set))
			for s := uint64(set); s != 0; s &= s - 1 {
				i := bits.TrailingZeros64(s)
				p := c.q.Preds[i]
				cond := set.Minus(engine.NewPredSet(i))
				for _, attr := range [2]engine.AttrID{p.Attr, p.Left} {
					if attr == engine.NoAttr {
						continue
					}
					side := comps.ComponentWith(cond, c.cat.AttrTable(attr))
					for _, h := range m.Candidates(attr, side) {
						mask, _ := m.ExprMask(attr, h)
						sink += mask.Len()
					}
				}
			}
			r.memo.Put(0, uint64(set), warmRes)
		}
		r.Release()
	})
	if allocs != 0 {
		t.Fatalf("warm run state allocated %.1f objects/op, want 0", allocs)
	}
	_ = sink
}
