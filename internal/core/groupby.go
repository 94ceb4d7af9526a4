package core

import (
	"math"

	"condsel/internal/engine"
	"condsel/internal/sit"
)

// EstimateGroups estimates the number of groups of GROUP BY attr over the
// sub-query σ_set — the paper's noted Group-By extension (§1 points to the
// companion thesis for it). The estimate combines three ingredients:
//
//  1. the estimated result size n of σ_set, from getSelectivity;
//  2. the distinct-value count d of attr *on the query expression*: the
//     best-matching SIT's histogram (restricted by any filters of set over
//     attr) — a SIT built over the join skews the reachable value set just
//     as it skews frequencies;
//  3. the Cardenas correction d·(1 − (1 − 1/d)ⁿ), accounting for groups
//     that the remaining (unmatched) predicates leave empty.
//
// The result is at least 1 when the sub-query is estimated non-empty.
func (r *Run) EstimateGroups(attr engine.AttrID, set engine.PredSet) float64 {
	q := r.Query
	res := r.decompose(set)
	tables := engine.PredsTables(q.Cat, q.Preds, set)
	at := q.Cat.AttrTable(attr)
	if !tables.Has(at) {
		tables = tables.Add(at)
	}
	n := res.Sel * q.Cat.CrossSize(tables)
	if n <= 0 {
		return 0
	}

	h := r.bestGroupSIT(attr, set)
	if h == nil {
		// No statistics at all: fall back to a square-root guess bounded by
		// the result size, a classic optimizer default.
		return clampGroups(math.Sqrt(n), n)
	}

	hist := h.Hist
	// Filters of the sub-query over attr restrict the reachable groups.
	for _, i := range set.Indices() {
		p := q.Preds[i]
		if !p.IsJoin() && p.Attr == attr {
			hist = hist.Restrict(p.Lo, p.Hi)
		}
	}
	d := hist.DistinctTotal()
	if d <= 0 {
		return 0
	}
	return clampGroups(cardenas(d, n), n)
}

// bestGroupSIT picks the candidate SIT for attr whose expression covers the
// most of the conditioning set, breaking ties towards higher diff (more
// informative distribution). The base histogram qualifies when nothing
// better matches; nil means no statistics exist for attr.
func (r *Run) bestGroupSIT(attr engine.AttrID, set engine.PredSet) *sit.SIT {
	cands := r.candidates(attr, set)
	var best *sit.SIT
	bestMatched := -1
	for _, h := range cands {
		m := h.MatchedSet(r.Query.Preds, set).Len()
		if m > bestMatched || (m == bestMatched && best != nil && h.Diff > best.Diff) {
			best, bestMatched = h, m
		}
	}
	return best
}

// cardenas returns the expected number of distinct groups when n tuples
// fall uniformly into d groups: d·(1 − (1 − 1/d)ⁿ), computed stably.
func cardenas(d, n float64) float64 {
	if d <= 1 {
		return d
	}
	// (1 − 1/d)ⁿ = exp(n·log1p(−1/d))
	return d * -math.Expm1(n*math.Log1p(-1/d))
}

func clampGroups(g, n float64) float64 {
	if g > n {
		g = n
	}
	if n >= 1 && g < 1 {
		g = 1
	}
	return g
}
