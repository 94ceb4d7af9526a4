package feedback

import (
	"math"
	"sync"
	"testing"

	"condsel/internal/datagen"
	"condsel/internal/engine"
	"condsel/internal/sit"
	"condsel/internal/workload"
)

func testEnv(t *testing.T) (*datagen.DB, []*engine.Query, *sit.Pool, *engine.Evaluator) {
	t.Helper()
	db := datagen.Generate(datagen.Config{Seed: 23, FactRows: 4000})
	g := workload.NewGenerator(db, workload.Config{Seed: 23, NumQueries: 6, Joins: 2, Filters: 2})
	queries, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	pool := sit.BuildWorkloadPool(sit.NewBuilder(db.Cat), queries, 0)
	return db, queries, pool, engine.NewEvaluator(db.Cat)
}

// TestObserveMakesRepeatExact: LEO's defining behaviour — after observing a
// query's true cardinality, re-estimating the same query is exact.
func TestObserveMakesRepeatExact(t *testing.T) {
	t.Parallel()
	db, queries, pool, ev := testEnv(t)
	for qi, q := range queries {
		e := New(db.Cat, pool)
		truth := ev.Count(q.Tables, q.Preds, q.All())
		if truth == 0 {
			continue
		}
		before := e.EstimateCardinality(q, q.All())
		e.Observe(q, q.All(), truth)
		after := e.EstimateCardinality(q, q.All())
		if rel := math.Abs(after-truth) / truth; rel > 1e-6 {
			t.Fatalf("query %d: repeat estimate %v vs truth %v (before %v)", qi, after, truth, before)
		}
	}
}

// TestContextFreeAdjustmentMissesSubqueries reproduces the paper's §6
// argument: the adjustment that fixes the full query distorts sub-queries,
// because it is attached to the attribute, not to the query context.
func TestContextFreeAdjustmentMissesSubqueries(t *testing.T) {
	t.Parallel()
	db := datagen.Generate(datagen.Config{Seed: 29, FactRows: 5000})
	cat := db.Cat
	// hot is correlated with the join; u1 is not.
	q := engine.NewQuery(cat, []engine.Pred{
		engine.Join(cat.MustAttr("sales.customer_fk"), cat.MustAttr("customer.id")), // 0
		engine.Filter(cat.MustAttr("customer.hot"), 9000, 10000),                    // 1
	})
	pool := sit.BuildWorkloadPool(sit.NewBuilder(cat), []*engine.Query{q}, 0)
	ev := engine.NewEvaluator(cat)
	e := New(cat, pool)

	full := q.All()
	truth := ev.Count(q.Tables, q.Preds, full)
	if truth == 0 {
		t.Skip("degenerate data")
	}
	e.Observe(q, full, truth)

	// The full query repeats exactly…
	if rel := math.Abs(e.EstimateCardinality(q, full)-truth) / truth; rel > 1e-6 {
		t.Fatalf("repeat not exact")
	}
	// …but the standalone filter — whose base estimate was fine — is now
	// distorted by the context-free adjustment.
	filterSet := engine.NewPredSet(1)
	filterTruth := ev.Count(engine.PredsTables(cat, q.Preds, filterSet), q.Preds, filterSet)
	adjusted := e.EstimateCardinality(q, filterSet)
	fresh := New(cat, pool).EstimateCardinality(q, filterSet)
	errAdj := math.Abs(adjusted - filterTruth)
	errFresh := math.Abs(fresh - filterTruth)
	if errAdj <= errFresh {
		t.Fatalf("expected the adjustment to distort the sub-query: adjusted err %v vs fresh err %v",
			errAdj, errFresh)
	}
}

func TestObserveIgnoresDegenerateFeedback(t *testing.T) {
	t.Parallel()
	db, queries, pool, _ := testEnv(t)
	e := New(db.Cat, pool)
	q := queries[0]
	e.Observe(q, q.All(), 0) // zero truth teaches nothing
	if e.Adjustments() != 0 {
		t.Fatalf("zero-truth observation learned %d adjustments", e.Adjustments())
	}
	e.Observe(q, 0, 100) // empty set teaches nothing
	if e.Adjustments() != 0 {
		t.Fatalf("empty-set observation learned adjustments")
	}
}

func TestReset(t *testing.T) {
	t.Parallel()
	db, queries, pool, ev := testEnv(t)
	e := New(db.Cat, pool)
	q := queries[0]
	truth := ev.Count(q.Tables, q.Preds, q.All())
	e.Observe(q, q.All(), math.Max(truth, 1))
	if e.Adjustments() == 0 {
		t.Fatalf("no adjustments learned")
	}
	e.Reset()
	if e.Adjustments() != 0 {
		t.Fatalf("Reset kept adjustments")
	}
}

// TestConcurrentObserveEstimate: the estimator's concurrency contract —
// execution-feedback goroutines Observe while estimation goroutines
// Estimate. Run under -race, correctness is "no race, bounds hold".
func TestConcurrentObserveEstimate(t *testing.T) {
	t.Parallel()
	db, queries, pool, ev := testEnv(t)
	e := New(db.Cat, pool)
	truths := make([]float64, len(queries))
	for i, q := range queries {
		truths[i] = ev.Count(q.Tables, q.Preds, q.All())
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := queries[(g+i)%len(queries)]
				if g%2 == 0 {
					e.Observe(q, q.All(), truths[(g+i)%len(queries)])
				} else {
					s := e.EstimateSelectivity(q, q.All())
					if s < 0 || s > 1 || math.IsNaN(s) {
						t.Errorf("selectivity %v out of range", s)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSelectivityBounds(t *testing.T) {
	t.Parallel()
	db, queries, pool, ev := testEnv(t)
	e := New(db.Cat, pool)
	// Train on everything, then check bounds everywhere.
	for _, q := range queries {
		e.Observe(q, q.All(), ev.Count(q.Tables, q.Preds, q.All()))
	}
	for _, q := range queries {
		full := q.All()
		for set := engine.PredSet(1); set <= full; set++ {
			if !set.SubsetOf(full) {
				continue
			}
			s := e.EstimateSelectivity(q, set)
			if s < 0 || s > 1 || math.IsNaN(s) {
				t.Fatalf("selectivity %v out of range", s)
			}
		}
	}
}
