package core

import (
	"math"

	"condsel/internal/engine"
	"condsel/internal/sit"
)

// ErrorModel scores how accurately a candidate SIT (or SIT pair, for joins)
// approximates one conditional factor. Scores are non-negative and finite;
// smaller is better. All models provided here aggregate additively across
// factors,
// making the overall error monotonic and algebraic (Definition 3), which is
// what licenses the dynamic program's principle of optimality (Theorem 1).
type ErrorModel interface {
	Name() string

	// FilterError scores approximating Sel(pred|cond) with SIT h, where
	// pred is a filter predicate of the run's query.
	FilterError(r *Run, pred int, cond engine.PredSet, h *sit.SIT) float64

	// JoinError scores approximating the equi-join predicate pred
	// conditioned on cond using hl for the left attribute and hr for the
	// right.
	JoinError(r *Run, pred int, cond engine.PredSet, hl, hr *sit.SIT) float64
}

// NInd counts independence assumptions (§3.2, adapted from Bruno &
// Chaudhuri SIGMOD'02): approximating Sel(p|Q) with SIT(a|Q') assumes p
// independent of Q−Q', contributing |Q−Q'| to the error. Only the part of Q
// connected to the predicate's attribute is charged — table-disjoint
// conditioning predicates are irrelevant by the separable decomposition
// property.
type NInd struct{}

// Name implements ErrorModel.
func (NInd) Name() string { return "nInd" }

// FilterError implements ErrorModel.
func (NInd) FilterError(r *Run, pred int, cond engine.PredSet, h *sit.SIT) float64 {
	return nIndSide(r, cond, r.Query.Preds[pred].Attr, h)
}

// JoinError implements ErrorModel.
func (NInd) JoinError(r *Run, pred int, cond engine.PredSet, hl, hr *sit.SIT) float64 {
	p := r.Query.Preds[pred]
	return nIndSide(r, cond, p.Left, hl) + nIndSide(r, cond, p.Right, hr)
}

func nIndSide(r *Run, cond engine.PredSet, attr engine.AttrID, h *sit.SIT) float64 {
	side := r.sideCond(cond, attr)
	matched := r.matchedSet(attr, h, side)
	return float64(side.Len() - matched.Len())
}

// matchedSet returns h.MatchedSet(r.Query.Preds, side) — the part of side
// that h's expression covers. On the fast path it reads the answer from the
// run matcher's projection of attr (see sit.Matcher.ExprMask), a mask and
// an AND instead of a canonical-value test per member of side; statistics
// outside the pool index, such as derived SITs, take the direct test.
func (r *Run) matchedSet(attr engine.AttrID, h *sit.SIT, side engine.PredSet) engine.PredSet {
	if r.fast {
		if mask, ok := r.matcherFor().ExprMask(attr, h); ok {
			return side & mask
		}
	}
	return h.MatchedSet(r.Query.Preds, side)
}

// Diff is the improved error function of §3.5: the syntactic count |Q−Q'|
// is replaced by the semantic degree of independence 1−diff_H, where diff_H
// is the variation distance between the SIT's distribution and the base
// distribution, computed once at SIT build time. A SIT whose expression
// fully covers the (relevant part of the) conditioning set makes no
// assumption and scores 0; so does an empty conditioning set.
type Diff struct{}

// Name implements ErrorModel.
func (Diff) Name() string { return "Diff" }

// FilterError implements ErrorModel.
func (Diff) FilterError(r *Run, pred int, cond engine.PredSet, h *sit.SIT) float64 {
	return diffSide(r, cond, r.Query.Preds[pred].Attr, h)
}

// JoinError implements ErrorModel.
func (Diff) JoinError(r *Run, pred int, cond engine.PredSet, hl, hr *sit.SIT) float64 {
	p := r.Query.Preds[pred]
	return diffSide(r, cond, p.Left, hl) + diffSide(r, cond, p.Right, hr)
}

func diffSide(r *Run, cond engine.PredSet, attr engine.AttrID, h *sit.SIT) float64 {
	side := r.sideCond(cond, attr)
	if side.Empty() {
		return 0
	}
	if r.matchedSet(attr, h, side) == side {
		return 0
	}
	return 1 - h.Diff
}

// Opt is the oracle error model of §5: the true difference between the
// exact conditional selectivity and the SIT-approximated one. Factor errors
// are measured as |ln est − ln truth|: along any decomposition chain the
// true factors multiply out exactly (Property 1), so the sum of per-factor
// log errors upper-bounds the log relative error of the final estimate —
// the additive aggregate remains monotonic and algebraic while actually
// tracking end-to-end accuracy. Opt is the best possible monotone model but
// requires ground truth, so it is of theoretical interest only; the
// estimator must carry an Oracle evaluator.
type Opt struct{}

// Name implements ErrorModel.
func (Opt) Name() string { return "Opt" }

// FilterError implements ErrorModel.
func (Opt) FilterError(r *Run, pred int, cond engine.PredSet, h *sit.SIT) float64 {
	p := r.Query.Preds[pred]
	est := h.Hist.EstimateRange(p.Lo, p.Hi)
	return logErr(est, r.trueConditional(pred, cond))
}

// JoinError implements ErrorModel. The candidate pair's join estimate goes
// through the run's histogram-join cache — it is the same join approxJoin
// would time for the winning pair.
func (Opt) JoinError(r *Run, pred int, cond engine.PredSet, hl, hr *sit.SIT) float64 {
	est := r.joinSelectivity(hl, hr)
	return logErr(est, r.trueConditional(pred, cond))
}

func logErr(est, truth float64) float64 {
	const floor = 1e-12
	if est < floor {
		est = floor
	}
	if truth < floor {
		truth = floor
	}
	d := math.Log(est / truth)
	if d < 0 {
		d = -d
	}
	return d
}
