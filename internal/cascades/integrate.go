package cascades

import (
	"math"

	"condsel/internal/core"
	"condsel/internal/engine"
)

// GroupEstimate is the best decomposition found for one memo group.
type GroupEstimate struct {
	Sel float64
	Err float64
}

// CoupledEstimator implements the §4.2 integration: selectivity estimation
// restricted to the decompositions induced by memo entries. Every entry E
// in the group for predicate set P contributes the decomposition
// Sel(P) = Sel(p_E|Q_E)·Sel(Q_E), with Sel(Q_E) taken from the input
// groups' own best estimates (for joins, the inputs are table-disjoint, so
// the product is exact by the separable decomposition property).
type CoupledEstimator struct {
	Memo *Memo
	Run  *core.Run

	estimates map[groupKey]GroupEstimate
}

// NewCoupledEstimator couples a getSelectivity run with the memo's search
// space. The run supplies the §3.3 factor approximation and the error
// model; its DP memo is not consulted — only the optimizer-induced
// decompositions are explored.
func NewCoupledEstimator(m *Memo, est *core.Estimator) *CoupledEstimator {
	return &CoupledEstimator{
		Memo:      m,
		Run:       est.NewRun(m.Query),
		estimates: make(map[groupKey]GroupEstimate),
	}
}

// EstimateAll processes every group bottom-up (each time an entry appears
// in a group it induces one decomposition, as when transformation rules
// fire during optimization) and returns the root group's estimate.
func (ce *CoupledEstimator) EstimateAll() GroupEstimate {
	for _, g := range ce.Memo.Groups() {
		ce.estimates[groupKey{g.Tables, g.Preds}] = ce.estimateGroup(g)
	}
	return ce.Estimate(ce.Memo.Root)
}

// Estimate returns the estimate of one group (EstimateAll must run first
// for non-leaf groups to be meaningful; unknown groups are computed on
// demand).
func (ce *CoupledEstimator) Estimate(g *Group) GroupEstimate {
	if e, ok := ce.estimates[groupKey{g.Tables, g.Preds}]; ok {
		return e
	}
	e := ce.estimateGroup(g)
	ce.estimates[groupKey{g.Tables, g.Preds}] = e
	return e
}

// estimateGroup keeps the most accurate decomposition among the group's
// entries.
func (ce *CoupledEstimator) estimateGroup(g *Group) GroupEstimate {
	if g.Preds.Empty() {
		return GroupEstimate{Sel: 1, Err: 0}
	}
	best := GroupEstimate{Err: math.Inf(1)}
	for _, e := range g.Exprs {
		if e.Op == OpScan {
			continue
		}
		// Q_E: union of input groups' predicates; the inputs' estimates
		// multiply (join inputs are table-disjoint).
		selQ, errQ := 1.0, 0.0
		var qe engine.PredSet
		for _, in := range e.Inputs {
			sub := ce.Estimate(in)
			selQ *= sub.Sel
			errQ += sub.Err
			qe = qe.Union(in.Preds)
		}
		selF, errF, _ := ce.Run.ApproxFactor(e.Pred, qe)
		cand, candSel := errF+errQ, selF*selQ
		// Same tie-breaking as the core DP: equal-error decompositions
		// resolve towards the larger selectivity.
		tol := 1e-9 * (1 + math.Abs(best.Err))
		if math.IsInf(best.Err, 1) || cand < best.Err-tol ||
			(cand <= best.Err+tol && candSel > best.Sel) {
			best = GroupEstimate{Sel: candSel, Err: cand}
		}
	}
	if math.IsInf(best.Err, 1) {
		// Group has only scans (no predicates applied here beyond inputs);
		// cannot happen for non-empty Preds, but stay defensive.
		return GroupEstimate{Sel: 1, Err: 0}
	}
	return best
}

// EstimateCardinality returns the root group's cardinality estimate.
func (ce *CoupledEstimator) EstimateCardinality() float64 {
	root := ce.Estimate(ce.Memo.Root)
	return root.Sel * ce.Memo.Query.Cat.CrossSize(ce.Memo.Root.Tables)
}
