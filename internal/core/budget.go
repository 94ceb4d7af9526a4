package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"condsel/internal/engine"
	"condsel/internal/faults"
	"condsel/internal/histogram"
	"condsel/internal/sit"
)

// This file is the fault-tolerance surface of the DP: execution budgets
// (deadline + node cap) that abort a run which would blow its latency
// envelope, panic-isolated entry points that convert any failure into a
// recorded fallback reason, and the cheaper estimation tiers the degradation
// ladder (internal/robust) falls back to when the full Figure 3 enumeration
// cannot finish.

// AbortError is the panic payload thrown inside a budgeted run when its
// context is done or its node budget is exhausted. It panics rather than
// threading errors through GetSelectivity so the memoized DP keeps its
// signature — guarded entry points (SelectivityGuarded and friends) recover
// it and report the reason.
type AbortError struct {
	Reason string
}

// Error implements error.
func (e *AbortError) Error() string { return "estimation aborted: " + e.Reason }

// budgetPollEvery is how many ApproxFactor calls pass between context polls;
// factor approximation is the DP's inner loop, so polling a fixed fraction
// of calls bounds overrun latency without a per-call time syscall.
const budgetPollEvery = 64

// runBudget bounds one run's execution. The zero/nil budget (plain NewRun)
// imposes nothing: every check is a single nil test on the hot path, and a
// budgeted run that finishes within budget computes bit-identical results to
// an unbudgeted one — budgets only ever abort, never alter.
type runBudget struct {
	ctx      context.Context
	maxNodes int // DP nodes (memo misses) allowed; 0 = unlimited
	nodes    int
	polls    int
}

// node accounts one DP node (a memo-miss compute) and aborts when over
// budget or past deadline.
func (b *runBudget) node() {
	if b == nil {
		return
	}
	b.nodes++
	if b.maxNodes > 0 && b.nodes > b.maxNodes {
		panic(&AbortError{Reason: fmt.Sprintf("node budget exhausted (%d nodes)", b.maxNodes)})
	}
	b.checkCtx()
}

// poll is the cheap high-frequency check for the factor-approximation inner
// loop: it consults the context every budgetPollEvery calls.
func (b *runBudget) poll() {
	if b == nil {
		return
	}
	b.polls++
	if b.polls%budgetPollEvery == 0 {
		b.checkCtx()
	}
}

// context is what the run's waits select on: the budget's context, so a
// wait ends at the run's deadline. NewRun supplies no context, so a run
// without one gets context.TODO, which is never done.
func (b *runBudget) context() context.Context {
	if b == nil || b.ctx == nil {
		return context.TODO()
	}
	return b.ctx
}

func (b *runBudget) checkCtx() {
	if b.ctx == nil {
		return
	}
	if err := b.ctx.Err(); err != nil {
		panic(&AbortError{Reason: "deadline: " + err.Error()})
	}
}

// NewBudgetedRun starts a run whose DP honors the context's deadline/
// cancellation and, when maxNodes > 0, aborts after that many memo-miss
// nodes. A nil context with maxNodes 0 is equivalent to NewRun.
func (e *Estimator) NewBudgetedRun(ctx context.Context, q *engine.Query, maxNodes int) *Run {
	r := e.NewRun(q)
	if ctx != nil || maxNodes > 0 {
		r.budget = &runBudget{ctx: ctx, maxNodes: maxNodes}
	}
	return r
}

// RecoverFallbackReason is the recovery handler shared by every guarded
// estimation entry point (here and in internal/robust): deferred, it converts
// a panic — budget abort, injected fault, or genuine bug — into a recorded,
// human-readable fallback reason instead of letting it unwind the caller.
func RecoverFallbackReason(fallbackReason *string) {
	rec := recover()
	if rec == nil {
		return
	}
	switch v := rec.(type) {
	case *AbortError:
		*fallbackReason = v.Reason
	case faults.Injected:
		*fallbackReason = v.Error()
	default:
		*fallbackReason = fmt.Sprintf("panic: %v", v)
	}
}

// invalidResult reports why the result is unusable ("" when it is sound):
// the selectivity must be finite in [0,1] and the error score non-NaN.
// Guarded entry points apply it before returning, and cachePut applies it
// before publishing, so a poisoned value can neither be served to a caller
// nor parked in the cross-query cache.
func invalidResult(res Result) string {
	if math.IsNaN(res.Sel) || math.IsInf(res.Sel, 0) || res.Sel < 0 || res.Sel > 1 {
		return fmt.Sprintf("selectivity %v outside [0,1]", res.Sel)
	}
	if math.IsNaN(res.Err) {
		return "error score is NaN"
	}
	return ""
}

// SelectivityGuarded runs the full DP for the set under the run's budget
// with panic isolation. On success fallbackReason is "" and res is the
// validated result; on abort, injected fault, panic or invariant violation,
// res is the zero Result and fallbackReason says why — the caller's cue to
// descend the degradation ladder.
func (r *Run) SelectivityGuarded(set engine.PredSet) (res Result, fallbackReason string) {
	defer RecoverFallbackReason(&fallbackReason)
	out := r.GetSelectivity(set)
	if reason := invalidResult(out); reason != "" {
		return Result{}, reason
	}
	return out, ""
}

// GreedyChainSelectivity is the budgeted-DP tier of the degradation ladder:
// instead of enumerating every decomposition (Figure 3), it builds one chain
// greedily — at each step the remaining predicate whose conditional factor
// scores the lowest model error is peeled off — for O(n²) factor
// approximations instead of an exponential enumeration. The result is an
// admissible (often identical, never better-scored) decomposition of the
// same factor space the DP searches.
func (r *Run) GreedyChainSelectivity(set engine.PredSet) (sel, errSum float64) {
	sel = 1
	var scratch [2]*sit.SIT // a singleton factor uses at most two SITs
	for !set.Empty() {
		r.budget.node() // each peeled predicate is one chain node
		bestErr, bestSel := math.Inf(1), 1.0
		var bestP engine.PredSet
		for s := uint64(set); s != 0; s &= s - 1 {
			i := bits.TrailingZeros64(s)
			pp := engine.PredSet(1) << uint(i)
			selF, errF, _ := r.approxFactor(i, set.Minus(pp), scratch[:0])
			if errF < bestErr {
				bestErr, bestSel, bestP = errF, selF, pp
			}
		}
		sel *= bestSel
		errSum += bestErr
		set = set.Minus(bestP)
	}
	return sel, errSum
}

// GreedyChainGuarded wraps GreedyChainSelectivity with the same budget
// honoring and panic isolation as SelectivityGuarded.
func (r *Run) GreedyChainGuarded(set engine.PredSet) (sel, errSum float64, fallbackReason string) {
	defer RecoverFallbackReason(&fallbackReason)
	sel, errSum = r.GreedyChainSelectivity(set)
	if math.IsNaN(sel) || math.IsInf(sel, 0) || sel < 0 || sel > 1 {
		return 0, 0, fmt.Sprintf("greedy chain selectivity %v outside [0,1]", sel)
	}
	return sel, errSum, ""
}

// IndependenceSelectivity is the ladder's last resort: the classic
// attribute-value-independence estimate using base histograms only — no DP,
// no SIT matching, no conditioning. Each filter is estimated on its base
// histogram, each join by the histogram join of its sides' base histograms,
// and predicates without statistics take the System R fallback constants.
// Every per-predicate term is clamped, so the product is always in [0,1].
func (r *Run) IndependenceSelectivity(set engine.PredSet) float64 {
	q := r.Query
	sel := 1.0
	for _, i := range set.Indices() {
		p := q.Preds[i]
		if p.IsJoin() {
			hl, hr := r.Est.Pool.Base(p.Left), r.Est.Pool.Base(p.Right)
			if hl == nil || hr == nil {
				sel *= FallbackJoinSelectivity
				continue
			}
			sel *= histogram.ClampSel(r.joinSelectivity(hl, hr))
		} else {
			h := r.Est.Pool.Base(p.Attr)
			if h == nil {
				sel *= FallbackFilterSelectivity
				continue
			}
			sel *= h.Hist.EstimateRange(p.Lo, p.Hi)
		}
	}
	return sel
}

// IndependenceGuarded wraps IndependenceSelectivity with panic isolation;
// it is the tier that must not fail, so a non-empty fallbackReason here
// means the caller should return the defined floor estimate.
func (r *Run) IndependenceGuarded(set engine.PredSet) (sel float64, fallbackReason string) {
	defer RecoverFallbackReason(&fallbackReason)
	sel = r.IndependenceSelectivity(set)
	if math.IsNaN(sel) || math.IsInf(sel, 0) || sel < 0 || sel > 1 {
		return 0, fmt.Sprintf("independence selectivity %v outside [0,1]", sel)
	}
	return sel, ""
}
