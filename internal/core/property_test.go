package core

import (
	"math"
	"math/rand"
	"testing"

	"condsel/internal/engine"
	"condsel/internal/sit"
)

// randomCase builds a random small database, a random SPJ query over it and
// the J1 pool for that query.
func randomCase(rng *rand.Rand) (*engine.Catalog, *engine.Query, *sit.Pool) {
	return randomCaseJ(rng, 1)
}

// randomCaseJ is randomCase with a caller-chosen maximum SIT join count.
func randomCaseJ(rng *rand.Rand, maxJoins int) (*engine.Catalog, *engine.Query, *sit.Pool) {
	cat := engine.NewCatalog()
	names := []string{"R", "S", "T"}
	nTables := 2 + rng.Intn(2)
	for ti := 0; ti < nTables; ti++ {
		rows := 20 + rng.Intn(60)
		cols := make([]*engine.Column, 3)
		for ci := range cols {
			vals := make([]int64, rows)
			var null []bool
			if ci == 2 {
				null = make([]bool, rows)
			}
			for r := range vals {
				vals[r] = int64(rng.Intn(20))
				if null != nil && rng.Intn(8) == 0 {
					null[r] = true
				}
			}
			cols[ci] = &engine.Column{Name: string(rune('a' + ci)), Vals: vals, Null: null}
		}
		cat.MustAddTable(&engine.Table{Name: names[ti], Cols: cols})
	}
	var preds []engine.Pred
	// Joins connecting consecutive tables keep the query mostly connected.
	for ti := 1; ti < nTables; ti++ {
		a1 := cat.AttrsOfTable(engine.TableID(ti - 1))[rng.Intn(3)]
		a2 := cat.AttrsOfTable(engine.TableID(ti))[rng.Intn(3)]
		preds = append(preds, engine.Join(a1, a2))
	}
	nFilters := 1 + rng.Intn(3)
	for fi := 0; fi < nFilters; fi++ {
		ti := engine.TableID(rng.Intn(nTables))
		a := cat.AttrsOfTable(ti)[rng.Intn(3)]
		lo := int64(rng.Intn(20))
		preds = append(preds, engine.Filter(a, lo, lo+int64(rng.Intn(10))))
	}
	q := engine.NewQuery(cat, preds)
	b := sit.NewBuilder(cat)
	pool := sit.BuildWorkloadPool(b, []*engine.Query{q}, maxJoins)
	return cat, q, pool
}

// TestPropertyRandomQueries checks the core invariants over many random
// databases and queries: selectivities in [0,1], non-negative finite
// errors, memo determinism, separable multiplication, and agreement with
// the brute-force enumeration of Figure 3 (bruteBest).
func TestPropertyRandomQueries(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		cat, q, pool := randomCase(rng)
		for _, model := range []ErrorModel{NInd{}, Diff{}} {
			fast := NewEstimator(cat, pool, model)
			rf := fast.NewRun(q)

			full := q.All()
			for set := engine.PredSet(1); set <= full; set++ {
				if !set.SubsetOf(full) {
					continue
				}
				res := rf.GetSelectivity(set)
				if res.Sel < 0 || res.Sel > 1+1e-9 || math.IsNaN(res.Sel) {
					t.Fatalf("trial %d: sel %v out of range for %v\n%s", trial, res.Sel, set, q)
				}
				if res.Err < 0 || math.IsInf(res.Err, 1) {
					t.Fatalf("trial %d: bad err %v for %v", trial, res.Err, set)
				}
				// Determinism: a fresh run returns the same values.
				again := fast.NewRun(q).GetSelectivity(set)
				if again.Sel != res.Sel || again.Err != res.Err {
					t.Fatalf("trial %d: nondeterministic result for %v", trial, set)
				}
				// Every decomposition of Figure 3, enumerated.
				exSel, exErr := bruteBest(rf, set)
				if math.Abs(exSel-res.Sel) > 1e-9 || math.Abs(exErr-res.Err) > 1e-9 {
					t.Fatalf("trial %d %s: DP (%v,%v) vs brute force (%v,%v) for %v\n%s",
						trial, model.Name(), res.Sel, res.Err, exSel, exErr, set, q)
				}
				// Separable sets multiply across components.
				comps := engine.Components(cat, q.Preds, set)
				if len(comps) > 1 {
					prod, errSum := 1.0, 0.0
					for _, comp := range comps {
						sub := rf.GetSelectivity(comp)
						prod *= sub.Sel
						errSum += sub.Err
					}
					if math.Abs(prod-res.Sel) > 1e-9 || math.Abs(errSum-res.Err) > 1e-9 {
						t.Fatalf("trial %d: separable mismatch for %v", trial, set)
					}
				}
			}
		}
	}
}

// TestPropertyMemoDeterminism: two independent Runs over the same query
// produce identical Results in full — selectivity, error AND the chosen
// decomposition (factor chain with its statistics), via Explain's complete
// rendering. This is the determinism the cross-query cache relies on.
func TestPropertyMemoDeterminism(t *testing.T) {
	t.Parallel()
	const seed = 777
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 40; trial++ {
		cat, q, pool := randomCase(rng)
		for _, model := range []ErrorModel{NInd{}, Diff{}} {
			est := NewEstimator(cat, pool, model)
			r1, r2 := est.NewRun(q), est.NewRun(q)
			full := q.All()
			// Visit subsets in opposite orders so the two memos are
			// populated along different paths.
			for set := engine.PredSet(1); set <= full; set++ {
				if !set.SubsetOf(full) {
					continue
				}
				rev := full ^ set // complement-order visit for r2
				if rev != 0 {
					r2.GetSelectivity(rev)
				}
			}
			for set := engine.PredSet(1); set <= full; set++ {
				if !set.SubsetOf(full) {
					continue
				}
				a, b := r1.GetSelectivity(set), r2.GetSelectivity(set)
				if a.Sel != b.Sel || a.Err != b.Err {
					t.Fatalf("seed %d trial %d %s: runs disagree on %v: (%v,%v) vs (%v,%v)",
						seed, trial, model.Name(), set, a.Sel, a.Err, b.Sel, b.Err)
				}
				if ea, eb := r1.Explain(set), r2.Explain(set); ea != eb {
					t.Fatalf("seed %d trial %d %s: decompositions differ for %v:\n%s\nvs\n%s",
						seed, trial, model.Name(), set, ea, eb)
				}
			}
		}
	}
}

// TestPropertyNIndMonotonicity: under the nInd model, adding SITs to the
// pool never increases the chosen decomposition's error for any sub-query.
// Checked two ways: along the nested pool ladder J0 ⊂ J1 ⊂ J2, and SIT by
// SIT — replaying the J2 pool's statistics one at a time onto a base-only
// pool with the error re-checked after every single addition.
func TestPropertyNIndMonotonicity(t *testing.T) {
	t.Parallel()
	const seed = 2026
	rng := rand.New(rand.NewSource(seed))

	errsFor := func(cat *engine.Catalog, q *engine.Query, p *sit.Pool) map[engine.PredSet]float64 {
		run := NewEstimator(cat, p, NInd{}).NewRun(q)
		out := make(map[engine.PredSet]float64)
		full := q.All()
		for set := engine.PredSet(1); set <= full; set++ {
			if set.SubsetOf(full) {
				out[set] = run.GetSelectivity(set).Err
			}
		}
		return out
	}
	checkNoWorse := func(t *testing.T, trial int, before, after map[engine.PredSet]float64, what string) {
		t.Helper()
		for set, b := range before {
			if a := after[set]; a > b+1e-6 {
				t.Fatalf("seed %d trial %d: nInd error for %v rose %v -> %v after %s",
					seed, trial, set, b, a, what)
			}
		}
	}

	for trial := 0; trial < 12; trial++ {
		cat, q, pool := randomCaseJ(rng, 2)

		// Pool ladder: each MaxJoins level only adds SITs.
		prev := errsFor(cat, q, pool.MaxJoins(0))
		for level := 1; level <= 2; level++ {
			cur := errsFor(cat, q, pool.MaxJoins(level))
			checkNoWorse(t, trial, prev, cur, "growing the pool ladder")
			prev = cur
		}

		// One SIT at a time: base histograms first, then every join-expression
		// SIT of the full pool in deterministic order.
		inc := sit.NewPool(cat)
		for _, s := range pool.MaxJoins(0).SITs() {
			inc.Add(s)
		}
		before := errsFor(cat, q, inc)
		for _, s := range pool.SITs() {
			if !inc.Add(s) {
				continue // already present (base histogram)
			}
			after := errsFor(cat, q, inc)
			checkNoWorse(t, trial, before, after, "adding SIT "+s.ID())
			before = after
		}
	}
}

// TestPropertyCardinalityBounds: estimated cardinalities never exceed the
// cross product and shrink (weakly) as predicates are added along chains.
func TestPropertyCardinalityBounds(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		cat, q, pool := randomCase(rng)
		run := NewEstimator(cat, pool, Diff{}).NewRun(q)
		full := q.All()
		for set := engine.PredSet(1); set <= full; set++ {
			if !set.SubsetOf(full) {
				continue
			}
			card := run.EstimateCardinality(set)
			tables := engine.PredsTables(cat, q.Preds, set)
			if card < 0 || card > cat.CrossSize(tables)+1e-6 {
				t.Fatalf("trial %d: card %v outside [0, %v] for %v",
					trial, card, cat.CrossSize(tables), set)
			}
		}
	}
}

// TestPropertyGroupEstimates: group-count estimates stay within
// [0, estimated rows] for random grouping attributes.
func TestPropertyGroupEstimates(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 40; trial++ {
		cat, q, pool := randomCase(rng)
		run := NewEstimator(cat, pool, Diff{}).NewRun(q)
		tables := q.Tables.Tables()
		attr := cat.AttrsOfTable(tables[rng.Intn(len(tables))])[rng.Intn(3)]
		groups := run.EstimateGroups(attr, q.All())
		rows := run.EstimateCardinality(q.All())
		if groups < 0 || math.IsNaN(groups) {
			t.Fatalf("trial %d: bad group estimate %v", trial, groups)
		}
		if rows >= 1 && groups > rows+1e-6 {
			t.Fatalf("trial %d: groups %v exceed rows %v", trial, groups, rows)
		}
	}
}
