package core

import (
	"math"
	"math/bits"
	"time"

	"condsel/internal/engine"
	"condsel/internal/faults"
	"condsel/internal/sit"
)

// filterApprox / joinApprox are the memoized results of scanFilter/scanJoin.
// The factor memos key them by (predicate position, canonical conditioning
// set). For side-invariant error models (NInd, Diff) the conditioning set is
// first reduced to the component(s) connected to the predicate's
// attribute(s); for other models (Opt) the full conditioning set is the key.
// The memo pays in exhaustive search and the greedy chain, which ask one
// factor under several conditioning sets. The default singleton search asks
// each Sel(p | S−p) once, for a connected S whose side is all of S−p.
type filterApprox struct {
	sel, err float64
	sit      *sit.SIT
}

type joinApprox struct {
	sel, err float64
	hl, hr   *sit.SIT
}

// ApproxFactor approximates the conditional factor Sel(pp|qq) with the best
// available SITs (§3.3) and returns the estimate, its error under the
// estimator's model, and the SITs used (nil entries mark fallbacks).
//
// With unidimensional SITs a multi-predicate factor is estimated as an
// internal chain: join predicates first (via the wildcard transform, i.e. a
// histogram join of per-side SITs), then filters, each predicate matched
// against the pool with the conditioning set grown by the factor predicates
// already processed. Errors accumulate additively, generalizing nInd's
// |P_i|·|Q_i−Q'_i| (see DESIGN.md).
func (r *Run) ApproxFactor(pp, qq engine.PredSet) (selF, errF float64, sits []*sit.SIT) {
	return r.approxFactor(pp, qq, nil)
}

// approxFactor is ApproxFactor appending the SITs used to dst, so the DP can
// score candidates into a frame-local buffer and allocate only the winner's
// slice. Each call is one factor approximation for the budget poll and the
// fault harness, whose rules fire by call count.
func (r *Run) approxFactor(pp, qq engine.PredSet, dst []*sit.SIT) (selF, errF float64, sits []*sit.SIT) {
	sits = dst
	r.budget.poll()
	fs := faults.Active() // nil when the harness is off; Fire is nil-safe
	if fs.Fire(faults.SlowFactor) {
		fs.Sleep()
	}
	if fs.Fire(faults.PanicInFactor) {
		panic(faults.Injected{Point: faults.PanicInFactor})
	}
	q := r.Query
	cond := qq
	selF = 1

	process := func(i int) {
		p := q.Preds[i]
		if p.IsJoin() {
			sel, err, hl, hr := r.approxJoin(i, cond)
			selF *= sel
			errF += err
			sits = append(sits, hl, hr)
		} else {
			sel, err, h := r.approxFilter(i, cond)
			selF *= sel
			errF += err
			sits = append(sits, h)
		}
		cond = cond.Add(i)
	}
	for s := uint64(pp); s != 0; s &= s - 1 {
		if i := bits.TrailingZeros64(s); q.Preds[i].IsJoin() {
			process(i)
		}
	}
	for s := uint64(pp); s != 0; s &= s - 1 {
		if i := bits.TrailingZeros64(s); !q.Preds[i].IsJoin() {
			process(i)
		}
	}
	if fs.Fire(faults.NaNSelectivity) {
		selF = math.NaN()
	}
	return selF, errF, sits
}

// approxFilter approximates Sel(pred|cond) for a filter predicate,
// memoizing per canonical conditioning set (see filterApprox). A memo hit
// returns the identical (selectivity, error, SIT) triple the scan produced.
func (r *Run) approxFilter(pred int, cond engine.PredSet) (float64, float64, *sit.SIT) {
	if !r.fast {
		return r.scanFilter(pred, cond)
	}
	if r.sideInv {
		cond = r.sideCond(cond, r.Query.Preds[pred].Attr)
	}
	if v, ok := r.filterMemo.Get(uint64(pred), uint64(cond)); ok {
		return v.sel, v.err, v.sit
	}
	sel, err, h := r.scanFilter(pred, cond)
	r.filterMemo.Put(uint64(pred), uint64(cond), filterApprox{sel, err, h})
	return sel, err, h
}

// scanFilter scores every candidate SIT for the filter predicate under the
// error model and estimates with the winner, falling back to a magic
// selectivity when no statistics exist for the attribute.
func (r *Run) scanFilter(pred int, cond engine.PredSet) (sel, err float64, chosen *sit.SIT) {
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

// approxJoin approximates Sel(pred|cond) for an equi-join predicate,
// memoizing like approxFilter; the canonical conditioning set of a join
// unions the side components of its two attributes.
func (r *Run) approxJoin(pred int, cond engine.PredSet) (float64, float64, *sit.SIT, *sit.SIT) {
	if !r.fast {
		return r.scanJoin(pred, cond)
	}
	if r.sideInv {
		p := r.Query.Preds[pred]
		cond = r.sideCond(cond, p.Left).Union(r.sideCond(cond, p.Right))
	}
	if v, ok := r.joinMemo.Get(uint64(pred), uint64(cond)); ok {
		return v.sel, v.err, v.hl, v.hr
	}
	sel, err, hl, hr := r.scanJoin(pred, cond)
	r.joinMemo.Put(uint64(pred), uint64(cond), joinApprox{sel, err, hl, hr})
	return sel, err, hl, hr
}

// scanJoin implements the §3.3 wildcard transform: pick one SIT per join
// side and estimate with a histogram join. The pair minimizing the model's
// score wins.
func (r *Run) scanJoin(pred int, cond engine.PredSet) (sel, err float64, hl, hr *sit.SIT) {
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
// the separable decomposition property, so the side-invariant error models
// do not charge for them — and candidate matching cannot see them either, as
// pool expressions are connected and anchored at attr's table. That
// invariance (property-tested by TestPropertySideCondInvariance) is what
// licenses the factor memo's side reduction for those models.
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
