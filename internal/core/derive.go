package core

import (
	"sort"

	"condsel/internal/engine"
	"condsel/internal/histogram"
	"condsel/internal/sit"
)

// derivedCandidates implements §3.3 Example 3's second mechanism for
// conditioning a filter attribute on a join: when the pool holds a
// two-dimensional statistic SIT(x, a|Q₁) pairing the filter attribute a
// with a join column x of the same table, joining it against the other join
// side's histogram yields a derived SIT(a | x=y, Q₁, Q₂) usable exactly
// like a stored one. Derived statistics are cached per run and compete with
// stored candidates under the estimator's error model.
func (r *Run) derivedCandidates(attr engine.AttrID, cond engine.PredSet) []*sit.SIT {
	if r.Est.Pool.Size2D() == 0 {
		return nil // keep 1-D-only pools (the paper's setup) untouched
	}
	q := r.Query
	cat := q.Cat
	at := cat.AttrTable(attr)
	var out []*sit.SIT
	for _, j := range cond.Indices() {
		p := q.Preds[j]
		if !p.IsJoin() || p.SelfJoin(cat) {
			continue
		}
		var x, y engine.AttrID
		switch {
		case cat.AttrTable(p.Left) == at:
			x, y = p.Left, p.Right
		case cat.AttrTable(p.Right) == at:
			x, y = p.Right, p.Left
		default:
			continue
		}
		if x == attr {
			continue // the filter attribute is the join column itself
		}
		rest := cond.Minus(engine.NewPredSet(j))
		for _, s2d := range r.Est.Pool.Candidates2D(q.Preds, x, attr, rest) {
			other := r.bestSideHist(y, rest)
			if other == nil {
				continue
			}
			if d := r.derive(j, s2d, other); d != nil {
				out = append(out, d)
			}
		}
	}
	// Order structurally (by ID) so tie-breaking among equal-score derived
	// candidates does not depend on the join predicates' positions within
	// the query — required for position-independent, cacheable results.
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// bestSideHist picks the other join side's statistic: the candidate with
// the largest matched expression (ties broken deterministically).
func (r *Run) bestSideHist(attr engine.AttrID, cond engine.PredSet) *sit.SIT {
	var best *sit.SIT
	bestMatched := -1
	for _, h := range r.candidates(attr, cond) {
		m := h.MatchedSet(r.Query.Preds, cond).Len()
		if m > bestMatched {
			best, bestMatched = h, m
		}
	}
	return best
}

// derive joins the 2-D SIT against the other side's histogram and wraps the
// resulting conditional distribution as a transient SIT whose expression is
// the join predicate plus both inputs' expressions.
func (r *Run) derive(joinPred int, s2d *sit.SIT2D, other *sit.SIT) *sit.SIT {
	key := s2d.ID() + "⋈" + other.ID()
	if r.derivedMemo == nil {
		r.derivedMemo = make(map[string]*sit.SIT)
	}
	if d, ok := r.derivedMemo[key]; ok {
		return d
	}
	_, yHist := s2d.Hist.JoinOnX(other.Hist)
	var d *sit.SIT
	if !yHist.Empty() {
		q := r.Query
		expr := make([]engine.Pred, 0, 1+len(s2d.Expr)+len(other.Expr))
		expr = append(expr, q.Preds[joinPred])
		expr = append(expr, s2d.Expr...)
		expr = append(expr, other.Expr...)
		diff := 0.0
		if base := r.Est.Pool.Base(s2d.Y); base != nil && base.Hist != nil {
			diff = histogram.Diff(base.Hist, yHist)
		}
		d = sit.NewSIT(q.Cat, s2d.Y, expr, yHist, diff)
		d.Source = other
	}
	r.derivedMemo[key] = d
	return d
}
