// Package robust implements the degradation ladder: fault-tolerant
// selectivity and cardinality estimation that always answers.
//
// The full getSelectivity DP (internal/core) gives the most accurate
// decomposition but its enumeration is exponential in the worst case, its
// statistics can be corrupt, and — in a production optimizer — an estimate
// that misses its latency envelope is as useless as no estimate. The ladder
// arranges four estimation tiers by fidelity and runs them top-down, each
// under deadline and panic isolation, descending one rung whenever a tier
// aborts, panics, or produces an out-of-range value:
//
//	TierFullDP      the Figure 3 DP, under context deadline + node budget
//	TierBudgetedDP  one greedy decomposition chain over the same factor
//	                space (O(n²) factor approximations, no enumeration)
//	TierGVM         greedy view matching (Bruno & Chaudhuri '02), deadline-
//	                polled between greedy rounds
//	TierNoSIT       attribute-value independence over base histograms
//
// TierNoSIT cannot block (no enumeration, no SIT matching) and is itself
// guarded; if even it fails, a closed-form System R fallback product answers.
// Every answer carries a Provenance saying which tier produced it and why
// the tiers above it fell through. When nothing goes wrong — no deadline, no
// faults, healthy statistics — TierFullDP's answer is bit-identical to the
// plain estimator's, because budgets only ever abort, never alter.
package robust

import (
	"context"
	"fmt"
	"math"

	"condsel/internal/core"
	"condsel/internal/engine"
	"condsel/internal/gvm"
)

// Tier identifies which estimation tier produced an answer, in descending
// fidelity order.
type Tier uint8

const (
	// TierFullDP is the full getSelectivity dynamic program.
	TierFullDP Tier = iota
	// TierBudgetedDP is the greedy-chain restriction of the DP.
	TierBudgetedDP
	// TierGVM is greedy view matching.
	TierGVM
	// TierNoSIT is the independence estimate over base histograms (also
	// reported when even that fails and the closed-form floor answers).
	TierNoSIT
)

// String names the tier as reported in provenance and benchmarks.
func (t Tier) String() string {
	switch t {
	case TierFullDP:
		return "full-dp"
	case TierBudgetedDP:
		return "budgeted-dp"
	case TierGVM:
		return "gvm"
	case TierNoSIT:
		return "no-sit"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// Provenance records how an estimate was produced.
type Provenance struct {
	// Tier is the rung that answered.
	Tier Tier
	// FallbackReason concatenates, per abandoned rung, why it fell through
	// ("" when TierFullDP answered).
	FallbackReason string
	// Generation is the statistics-pool content stamp the estimate was
	// produced against (sit.Pool.Generation at the start of the ladder).
	// Feedback consumers — the lifecycle manager's drift detector — use it
	// to discard observations computed against a retired pool epoch instead
	// of mis-attributing their error to the statistics of the current one.
	Generation uint64
}

// DefaultNodeBudget caps the full DP's memo-miss nodes when Config leaves
// NodeBudget zero. The DP visits at most 2ⁿ nodes per query; this default is
// far above any workload query in this repository (n ≤ 17 components-wise)
// yet bounds a pathological enumeration to well under a second.
const DefaultNodeBudget = 200_000

// Config tunes the ladder.
type Config struct {
	// NodeBudget caps TierFullDP's DP nodes: 0 means DefaultNodeBudget,
	// negative means unlimited.
	NodeBudget int

	// MaxTier is the highest-fidelity tier the ladder may attempt; rungs
	// above it are skipped outright, with SkipReason recorded per skipped
	// rung in the answer's FallbackReason. The zero value (TierFullDP)
	// admits the whole ladder. A service layer uses this to shed load by
	// degrading fidelity instead of erroring: an overloaded or deadline-
	// starved request enters the ladder at a rung cheap enough to answer
	// within what remains of its budget.
	MaxTier Tier

	// SkipReason says why tiers above MaxTier were skipped (e.g.
	// "deadline-mapped", "slo-capped", "admission-shed"). Empty selects
	// "capped".
	SkipReason string
}

// RemoteUnavailablePrefix opens every provenance reason recorded when a
// remote statistics shard could not be reached and the local ladder
// answered instead; CI greps for it when asserting that every degraded
// answer under a partition carries provenance.
const RemoteUnavailablePrefix = "remote-shard-unavailable"

// RemoteUnavailableReason formats the Cap reason for an unreachable remote
// shard: `remote-shard-unavailable: <peer>/<cause>`.
func RemoteUnavailableReason(peer, cause string) string {
	return RemoteUnavailablePrefix + ": " + peer + "/" + cause
}

func (c Config) skipReason() string {
	if c.SkipReason == "" {
		return "capped"
	}
	return c.SkipReason
}

// Cap lowers the config's admitted tier to t when t is below the current
// MaxTier, recording reason for the skipped rungs. Capping never raises
// fidelity: a config already restricted further is returned unchanged.
func (c Config) Cap(t Tier, reason string) Config {
	if t > c.MaxTier {
		c.MaxTier = t
		c.SkipReason = reason
	}
	return c
}

func (c Config) nodeBudget() int {
	if c.NodeBudget == 0 {
		return DefaultNodeBudget
	}
	if c.NodeBudget < 0 {
		return 0 // core: 0 = unlimited
	}
	return c.NodeBudget
}

// Estimator runs the degradation ladder over a configured core estimator.
// It is safe for concurrent use whenever the underlying estimator is.
type Estimator struct {
	Core *core.Estimator
	GVM  *gvm.Estimator
	Cfg  Config
}

// New returns a ladder over the core estimator (the GVM tier is derived
// from the same catalog and pool).
func New(e *core.Estimator, cfg Config) *Estimator {
	return &Estimator{Core: e, GVM: gvm.NewEstimator(e.Cat, e.Pool), Cfg: cfg}
}

// Selectivity estimates Sel(set) for the query through the ladder. The
// context bounds the expensive tiers (nil means no deadline); the returned
// selectivity is always finite and in [0,1], whatever fails underneath.
func (e *Estimator) Selectivity(ctx context.Context, q *engine.Query, set engine.PredSet) (float64, Provenance) {
	gen := e.Core.Pool.Generation()
	var fall string

	// Tier 1: full DP under deadline + node budget.
	if e.Cfg.MaxTier > TierFullDP {
		fall = "full-dp: skipped (" + e.Cfg.skipReason() + ")"
	} else {
		r := e.Core.NewBudgetedRun(ctx, q, e.Cfg.nodeBudget())
		res, reason := r.SelectivityGuarded(set)
		r.Release()
		if reason == "" {
			return res.Sel, Provenance{Tier: TierFullDP, Generation: gen}
		}
		fall = "full-dp: " + reason
	}

	// Tier 2: greedy chain on a fresh run (the aborted run's memo may hold
	// poisoned partial results — Release wipes the memo, so pooling the
	// aborted run above is safe), same deadline, no node budget — the
	// chain's O(n²) factor count bounds it structurally.
	if e.Cfg.MaxTier > TierBudgetedDP {
		fall += "; budgeted-dp: skipped (" + e.Cfg.skipReason() + ")"
	} else {
		r2 := e.Core.NewBudgetedRun(ctx, q, 0)
		sel, _, reason := r2.GreedyChainGuarded(set)
		r2.Release()
		if reason == "" {
			return sel, Provenance{Tier: TierBudgetedDP, FallbackReason: fall, Generation: gen}
		}
		fall += "; budgeted-dp: " + reason
	}

	// Tier 3: greedy view matching, deadline-polled between rounds.
	if e.Cfg.MaxTier > TierGVM {
		fall += "; gvm: skipped (" + e.Cfg.skipReason() + ")"
	} else {
		sel, reason := e.gvmGuarded(ctx, q, set)
		if reason == "" {
			return sel, Provenance{Tier: TierGVM, FallbackReason: fall, Generation: gen}
		}
		fall += "; gvm: " + reason
	}

	// Tier 4: independence over base histograms — no deadline: this tier
	// must answer, and it performs no search to bound. MaxTier never skips
	// it; the ladder's availability contract ends here, not at the floor.
	r4 := e.Core.NewRun(q)
	sel, reason := r4.IndependenceGuarded(set)
	r4.Release()
	if reason == "" {
		return sel, Provenance{Tier: TierNoSIT, FallbackReason: fall, Generation: gen}
	}
	fall += "; no-sit: " + reason

	// Closed-form floor: the System R fallback product. Pure arithmetic
	// over in-range constants — cannot fail, cannot leave [0,1].
	return floorSelectivity(q, set), Provenance{Tier: TierNoSIT, FallbackReason: fall + "; floor", Generation: gen}
}

// Cardinality estimates the cardinality of the full query through the
// ladder: Sel(all) · |tables^×|. The result is always finite and ≥ 0.
func (e *Estimator) Cardinality(ctx context.Context, q *engine.Query) (float64, Provenance) {
	_, card, prov := e.Estimate(ctx, q)
	return card, prov
}

// Estimate answers the full query through the ladder: its selectivity, its
// cardinality Sel(all) · |tables^×|, and the provenance of both. The
// selectivity is always finite and in [0,1], the cardinality finite and ≥ 0.
func (e *Estimator) Estimate(ctx context.Context, q *engine.Query) (sel, card float64, prov Provenance) {
	sel, prov = e.Selectivity(ctx, q, q.All())
	tables := engine.PredsTables(q.Cat, q.Preds, q.All())
	card = sel * q.Cat.CrossSize(tables)
	if math.IsNaN(card) || math.IsInf(card, 0) || card < 0 {
		// Unreachable while Selectivity keeps its contract (sel ∈ [0,1] and
		// CrossSize is finite ≥ 0), but cardinality is the value optimizers
		// consume, so it gets its own last-line guard.
		prov.FallbackReason += "; cardinality clamped"
		return sel, 0, prov
	}
	return sel, card, prov
}

// gvmGuarded runs the GVM tier with panic isolation and range validation.
func (e *Estimator) gvmGuarded(ctx context.Context, q *engine.Query, set engine.PredSet) (sel float64, fallbackReason string) {
	defer core.RecoverFallbackReason(&fallbackReason)
	s, err := e.GVM.EstimateSelectivityCtx(ctx, q, set)
	if err != nil {
		return 0, "deadline: " + err.Error()
	}
	if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 || s > 1 {
		return 0, fmt.Sprintf("selectivity %v outside [0,1]", s)
	}
	return s, ""
}

// floorSelectivity is the ladder's closed-form last answer: the classic
// System R magic-constant product (0.1 per filter, 0.01 per join).
func floorSelectivity(q *engine.Query, set engine.PredSet) float64 {
	sel := 1.0
	for _, i := range set.Indices() {
		if q.Preds[i].IsJoin() {
			sel *= core.FallbackJoinSelectivity
		} else {
			sel *= core.FallbackFilterSelectivity
		}
	}
	return sel
}
