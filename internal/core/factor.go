package core

import (
	"math"
	"time"

	"condsel/internal/engine"
	"condsel/internal/faults"
	"condsel/internal/sit"
)

// ApproxFactor approximates the conditional factor Sel(pred|qq) of one
// predicate with the best available SITs (§3.3) and returns the estimate,
// its error under the estimator's model, and the SITs used (one for a
// filter, one per side for a join; nil entries mark fallbacks).
func (r *Run) ApproxFactor(pred int, qq engine.PredSet) (selF, errF float64, sits []*sit.SIT) {
	return r.approxFactor(pred, qq, nil)
}

// approxFactor is ApproxFactor appending the SITs used to dst, so the DP can
// score candidates into a frame-local buffer and allocate only the winner's
// slice. Each call is one factor approximation for the budget poll and the
// fault harness, whose rules fire by call count.
func (r *Run) approxFactor(pred int, qq engine.PredSet, dst []*sit.SIT) (selF, errF float64, sits []*sit.SIT) {
	r.budget.poll()
	fs := faults.Active() // nil when the harness is off; Fire is nil-safe
	if fs.Fire(faults.SlowFactor) {
		fs.Sleep(r.budget.context())
	}
	if fs.Fire(faults.PanicInFactor) {
		panic(faults.Injected{Point: faults.PanicInFactor})
	}
	if r.Query.Preds[pred].IsJoin() {
		var hl, hr *sit.SIT
		selF, errF, hl, hr = r.approxJoin(pred, qq)
		sits = append(dst, hl, hr)
	} else {
		var h *sit.SIT
		selF, errF, h = r.approxFilter(pred, qq)
		sits = append(dst, h)
	}
	if fs.Fire(faults.NaNSelectivity) {
		selF = math.NaN()
	}
	return selF, errF, sits
}

// approxFilter scores every candidate SIT for the filter predicate under the
// error model and estimates with the winner, falling back to a magic
// selectivity when no statistics exist for the attribute.
func (r *Run) approxFilter(pred int, cond engine.PredSet) (sel, err float64, chosen *sit.SIT) {
	q := r.Query
	p := q.Preds[pred]
	cands := r.candidates(p.Attr, cond)
	derived := r.derivedCandidates(p.Attr, cond)
	if len(cands)+len(derived) == 0 {
		return FallbackFilterSelectivity, FallbackError, nil
	}
	bestScore := math.Inf(1)
	for _, h := range cands {
		if score := r.Est.Model.FilterError(r, pred, cond, h); score < bestScore {
			chosen, bestScore = h, score
		}
	}
	for _, h := range derived {
		if score := r.Est.Model.FilterError(r, pred, cond, h); score < bestScore {
			chosen, bestScore = h, score
		}
	}
	//lint:ignore nondet HistNanos telemetry (Figure 8 accounting); never feeds an estimate
	start := time.Now()
	sel = chosen.Hist.EstimateRange(p.Lo, p.Hi)
	//lint:ignore nondet HistNanos telemetry (Figure 8 accounting); never feeds an estimate
	r.HistNanos += time.Since(start).Nanoseconds()
	return sel, bestScore, chosen
}

// approxJoin implements the §3.3 wildcard transform for an equi-join
// predicate: pick one SIT per join side and estimate with a histogram join.
// The pair minimizing the model's score wins.
func (r *Run) approxJoin(pred int, cond engine.PredSet) (sel, err float64, hl, hr *sit.SIT) {
	q := r.Query
	p := q.Preds[pred]
	cl := r.candidates(p.Left, cond)
	cr := r.candidates(p.Right, cond)
	if len(cl) == 0 || len(cr) == 0 {
		return FallbackJoinSelectivity, FallbackError, nil, nil
	}
	bestScore := math.Inf(1)
	for _, a := range cl {
		for _, b := range cr {
			if score := r.Est.Model.JoinError(r, pred, cond, a, b); score < bestScore {
				hl, hr, bestScore = a, b, score
			}
		}
	}
	//lint:ignore nondet HistNanos telemetry (Figure 8 accounting); never feeds an estimate
	start := time.Now()
	sel = r.joinSelectivity(hl, hr)
	//lint:ignore nondet HistNanos telemetry (Figure 8 accounting); never feeds an estimate
	r.HistNanos += time.Since(start).Nanoseconds()
	return sel, bestScore, hl, hr
}

// candidates resolves a §3.3 candidate lookup, through the run's matcher
// (mask matching + per-run conditioning-set cache) on the fast path and
// directly against the pool otherwise. Returned slices are shared with the
// matcher cache and must not be modified.
func (r *Run) candidates(attr engine.AttrID, cond engine.PredSet) []*sit.SIT {
	if r.fast {
		return r.matcherFor().Candidates(attr, cond)
	}
	return r.Est.Pool.Candidates(r.Query.Preds, attr, cond)
}

// sideCond returns the portion of cond that can influence attr: the
// connected component of cond's predicates whose tables include attr's
// table. Predicates of cond in table-disjoint components are irrelevant by
// the separable decomposition property, so NInd and Diff do not charge for
// them — and candidate matching cannot see them either, as pool expressions
// are connected and anchored at attr's table (property-tested by
// TestPropertySideCondInvariance).
func (r *Run) sideCond(cond engine.PredSet, attr engine.AttrID) engine.PredSet {
	q := r.Query
	at := q.Cat.AttrTable(attr)
	if r.fast {
		return r.compsFor().ComponentWith(cond, at)
	}
	for _, comp := range engine.Components(q.Cat, q.Preds, cond) {
		if engine.PredsTables(q.Cat, q.Preds, comp).Has(at) {
			return comp
		}
	}
	return 0
}
