// Package feedback implements a LEO-style self-tuning estimator (Stillger
// et al., VLDB'01), the learning alternative the paper contrasts SITs with
// in §6: by monitoring executed queries it adjusts per-attribute statistics
// so the *processed* query's cardinality comes out right — but it keeps a
// single adjustment per attribute and still multiplies predicates under
// independence. The paper's point, reproduced by ablation A7, is that such
// context-free adjustments fix repeated queries while sub-queries and new
// contexts stay wrong, whereas SITs keep separate statistics per query
// expression.
//
// The estimator is safe for concurrent use: the adjustment table is
// mutex-guarded, so execution-feedback goroutines can Observe while
// estimation goroutines Estimate.
package feedback

import (
	"math"
	"sync"

	"condsel/internal/engine"
	"condsel/internal/histogram"
	"condsel/internal/sit"
)

// Estimator is an independence-assumption estimator over base histograms
// with multiplicative per-predicate-identity adjustments learned from
// observed cardinalities. Safe for concurrent use.
type Estimator struct {
	cat  *engine.Catalog
	pool *sit.Pool // base histograms (SIT expressions are ignored)

	// mu guards adj. Estimation reads and learning writes may come from
	// different goroutines (execution feedback is asynchronous by nature),
	// so every access to the adjustment table is locked.
	mu  sync.Mutex
	adj map[string]float64
}

// New returns a feedback estimator over the pool's base histograms.
func New(cat *engine.Catalog, pool *sit.Pool) *Estimator {
	return &Estimator{cat: cat, pool: pool, adj: make(map[string]float64)}
}

// key returns the adjustment slot for a predicate: per attribute for
// filters ("a single adjusted histogram per attribute"), per attribute pair
// for joins.
func (e *Estimator) key(p engine.Pred) string {
	if p.IsJoin() {
		return "J" + e.cat.AttrName(p.Left) + "=" + e.cat.AttrName(p.Right)
	}
	return "F" + e.cat.AttrName(p.Attr)
}

// baseSelectivity is the classic per-predicate estimate from base
// histograms (fallback magic constants when none exist).
func (e *Estimator) baseSelectivity(p engine.Pred) float64 {
	if p.IsJoin() {
		hl, hr := e.pool.Base(p.Left), e.pool.Base(p.Right)
		if hl == nil || hr == nil {
			return 0.01
		}
		return histogram.Join(hl.Hist, hr.Hist).Selectivity
	}
	h := e.pool.Base(p.Attr)
	if h == nil {
		return 0.1
	}
	return h.Hist.EstimateRange(p.Lo, p.Hi)
}

// EstimateSelectivity multiplies per-predicate base selectivities and their
// learned adjustments under the independence assumption.
func (e *Estimator) EstimateSelectivity(q *engine.Query, set engine.PredSet) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.estimateSelectivityLocked(q, set)
}

// estimateSelectivityLocked is EstimateSelectivity under a held e.mu; Observe
// shares it so the estimate-then-learn sequence is atomic with respect to
// concurrent observations.
func (e *Estimator) estimateSelectivityLocked(q *engine.Query, set engine.PredSet) float64 {
	sel := 1.0
	for _, i := range set.Indices() {
		p := q.Preds[i]
		s := e.baseSelectivity(p)
		if a, ok := e.adj[e.key(p)]; ok {
			s *= a
		}
		sel *= s
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

// EstimateCardinality returns the estimated cardinality of σ_set over its
// referenced tables.
func (e *Estimator) EstimateCardinality(q *engine.Query, set engine.PredSet) float64 {
	tables := engine.PredsTables(q.Cat, q.Preds, set)
	return e.EstimateSelectivity(q, set) * q.Cat.CrossSize(tables)
}

// Observe feeds back the true cardinality of an executed (sub-)query: the
// discrepancy between the estimate and the truth is distributed
// geometrically over the participating predicates' adjustment slots, so a
// re-estimate of the same query is exact afterwards (LEO's defining
// behaviour). Queries whose truth or estimate is zero teach nothing.
func (e *Estimator) Observe(q *engine.Query, set engine.PredSet, trueCard float64) {
	tables := engine.PredsTables(q.Cat, q.Preds, set)
	cross := q.Cat.CrossSize(tables)

	e.mu.Lock()
	est := e.estimateSelectivityLocked(q, set)
	if cross > 0 && trueCard > 0 && est > 0 {
		ratio := (trueCard / cross) / est
		n := set.Len()
		if n > 0 && ratio > 0 && !math.IsInf(ratio, 0) {
			perPred := math.Pow(ratio, 1/float64(n))
			for _, i := range set.Indices() {
				k := e.key(q.Preds[i])
				cur, ok := e.adj[k]
				if !ok {
					cur = 1
				}
				e.adj[k] = cur * perPred
			}
		}
	}
	e.mu.Unlock()
}

// Adjustments returns the number of learned adjustment slots.
func (e *Estimator) Adjustments() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.adj)
}

// Reset forgets all learned adjustments.
func (e *Estimator) Reset() {
	e.mu.Lock()
	e.adj = make(map[string]float64)
	e.mu.Unlock()
}
