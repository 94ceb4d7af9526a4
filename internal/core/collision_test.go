package core

import (
	"testing"

	"condsel/internal/engine"
)

// TestCacheCollisionFallback forces the situation the frame check exists
// for: a cache entry whose key matches (as if two predicate multisets
// collided in the 64-bit hash) but whose predicates differ from the run's.
// The lookup must treat it as a miss, recompute the true value, and republish
// the correct entry — never serve the impostor's selectivity.
func TestCacheCollisionFallback(t *testing.T) {
	c := dpBenchCaseN(6)
	full := c.q.All()

	// Reference value from a cache-free estimator.
	ref := NewEstimator(c.cat, c.pool, Diff{})
	rr := ref.NewRun(c.q)
	want := rr.GetSelectivity(full).Sel
	rr.Release()

	// frameOf copies the run's own frame: its canonical predicates and
	// their canonical order, as cachePut publishes them.
	frameOf := func(r *Run) *CacheFrame {
		return &CacheFrame{
			Preds: append([]engine.Pred(nil), r.canonPreds...),
			Order: append([]uint8(nil), r.canonOrder...),
		}
	}
	poisons := map[string]func(r *Run) CacheEntry{
		"wrong-length": func(r *Run) CacheEntry {
			// One predicate short of the looked-up set.
			return CacheEntry{Sel: 0.123, Key: "bogus", Set: full &^ 1, Frame: frameOf(r)}
		},
		"wrong-pred": func(r *Run) CacheEntry {
			// Right cardinality, one predicate altered: the rank-by-rank
			// canonical comparison has to catch it.
			f := frameOf(r)
			f.Preds[f.Order[len(f.Order)-1]].Lo++
			return CacheEntry{Sel: 0.123, Key: "bogus", Set: full, Frame: f}
		},
		"bad-factor-mask": func(r *Run) CacheEntry {
			// Correct predicates but a factor mask naming a position outside
			// the entry's set: decode must check and miss rather than map a
			// position it never paired.
			return CacheEntry{Sel: 0.123, Key: "bogus", Set: full, Frame: frameOf(r),
				Factors: []Factor{{P: engine.PredSet(1) << uint(full.Len()), Sel: 0.5}}}
		},
	}

	for name, poison := range poisons {
		t.Run(name, func(t *testing.T) {
			est := NewEstimator(c.cat, c.pool, Diff{})
			est.Cache = NewSelCache(1 << 10)
			r := est.NewRun(c.q)
			key := r.cacheKey(full)
			est.Cache.Put(key, poison(r))

			got := r.GetSelectivity(full)
			if got.Sel != want {
				t.Fatalf("served poisoned entry: got %v, want %v", got.Sel, want)
			}
			// The recompute must have republished the genuine entry under the
			// same key, so a fresh run now hits it.
			e, ok := est.Cache.Get(key)
			if !ok {
				t.Fatal("correct entry was not republished after collision miss")
			}
			if e.Sel != want || e.Key == "bogus" {
				t.Fatalf("republished entry still poisoned: sel=%v key=%q", e.Sel, e.Key)
			}
			r.Release()

			r2 := est.NewRun(c.q)
			if got2 := r2.GetSelectivity(full); got2.Sel != want {
				t.Fatalf("fresh run after republish: got %v, want %v", got2.Sel, want)
			}
			r2.Release()
		})
	}
}
