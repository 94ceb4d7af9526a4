package sit

import (
	"math/rand"
	"testing"

	"condsel/internal/engine"
)

// matcherCase builds a random catalog, query predicates and a workload pool.
func matcherCase(rng *rand.Rand) (*engine.Catalog, []engine.Pred, *Pool) {
	cat := engine.NewCatalog()
	nTables := 2 + rng.Intn(3)
	for t := 0; t < nTables; t++ {
		rows := 10 + rng.Intn(30)
		cols := make([]*engine.Column, 3)
		for ci := range cols {
			vals := make([]int64, rows)
			for i := range vals {
				vals[i] = int64(rng.Intn(12))
			}
			cols[ci] = &engine.Column{Name: string(rune('a' + ci)), Vals: vals}
		}
		cat.MustAddTable(&engine.Table{Name: string(rune('A' + t)), Cols: cols})
	}
	var preds []engine.Pred
	for t := 1; t < nTables; t++ {
		preds = append(preds, engine.Join(
			cat.AttrsOfTable(engine.TableID(t - 1))[rng.Intn(3)],
			cat.AttrsOfTable(engine.TableID(t))[rng.Intn(3)]))
	}
	for f := 0; f < 1+rng.Intn(3); f++ {
		a := cat.AttrsOfTable(engine.TableID(rng.Intn(nTables)))[rng.Intn(3)]
		lo := int64(rng.Intn(12))
		preds = append(preds, engine.Filter(a, lo, lo+int64(rng.Intn(6))))
	}
	q := engine.NewQuery(cat, preds)
	pool := BuildWorkloadPool(NewBuilder(cat), []*engine.Query{q}, 2)
	return cat, preds, pool
}

// TestMatcherMatchesPoolCandidates: for every attribute and every
// conditioning subset, the Matcher returns exactly what Pool.Candidates
// returns — same SIT pointers in the same order — on cold and cached
// lookups alike, and every candidate's ExprMask agrees with MatchedSet. One
// Matcher serves every trial, so each Reset must leave nothing of the
// previous query behind.
func TestMatcherMatchesPoolCandidates(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	var m Matcher
	for trial := 0; trial < 40; trial++ {
		cat, preds, pool := matcherCase(rng)
		m.Reset(pool, preds)
		full := engine.FullPredSet(len(preds))
		var attrs []engine.AttrID
		for ti := 0; ti < cat.NumTables(); ti++ {
			attrs = append(attrs, cat.AttrsOfTable(engine.TableID(ti))...)
		}
		for pass := 0; pass < 2; pass++ { // pass 1 is served from the cache
			for _, attr := range attrs {
				for cond := engine.PredSet(0); cond <= full; cond++ {
					want := pool.Candidates(preds, attr, cond)
					got := m.Candidates(attr, cond)
					if len(got) != len(want) {
						t.Fatalf("trial %d pass %d attr %d cond %v: %d candidates, want %d",
							trial, pass, attr, pass, len(got), len(want))
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("trial %d pass %d attr %d cond %v: candidate %d = %s, want %s",
								trial, pass, attr, cond, k, got[k].ID(), want[k].ID())
						}
						mask, ok := m.ExprMask(attr, got[k])
						if !ok {
							t.Fatalf("trial %d: ExprMask misses indexed candidate %s", trial, got[k].ID())
						}
						if mask&cond != got[k].MatchedSet(preds, cond) {
							t.Fatalf("trial %d attr %d cond %v: ExprMask of %s = %v, MatchedSet %v",
								trial, attr, cond, got[k].ID(), mask&cond, got[k].MatchedSet(preds, cond))
						}
					}
				}
			}
		}
	}
}

// TestMatcherCountsMatchCalls: every Matcher lookup — cached or not — bumps
// the pool's view-matching counter, preserving the Figure 6 metric.
func TestMatcherCountsMatchCalls(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(8))
	cat, preds, pool := matcherCase(rng)
	var m Matcher
	m.Reset(pool, preds)
	attr := cat.AttrsOfTable(0)[0]
	pool.ResetMatchCalls()
	m.Candidates(attr, 0)
	m.Candidates(attr, 0) // cache hit still counts
	if got := pool.MatchCalls(); got != 2 {
		t.Fatalf("MatchCalls = %d, want 2", got)
	}
}
