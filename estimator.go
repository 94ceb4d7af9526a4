package condsel

import (
	"context"
	"errors"
	"fmt"

	"condsel/internal/cascades"
	"condsel/internal/core"
	"condsel/internal/engine"
	"condsel/internal/gvm"
	"condsel/internal/planner"
	"condsel/internal/robust"
)

// Model selects the error model ranking candidate decompositions.
type Model int

const (
	// NInd counts independence assumptions (§3.2).
	NInd Model = iota
	// Diff weighs assumptions by the SITs' distribution divergence (§3.5);
	// the paper's most accurate practical model.
	Diff
	// Opt is the oracle model: it ranks by true per-factor error, requires
	// exact evaluation, and exists for analysis only (§5).
	Opt
)

func (m Model) internal() core.ErrorModel {
	switch m {
	case NInd:
		return core.NInd{}
	case Opt:
		return core.Opt{}
	default:
		return core.Diff{}
	}
}

// String returns the model's paper name.
func (m Model) String() string { return m.internal().Name() }

// Estimator estimates query cardinalities with the getSelectivity dynamic
// program over a statistics pool.
//
// An Estimator is safe for concurrent use by multiple goroutines once
// configured: every estimation call builds its own per-query run state, and
// all shared state (catalog, pool, oracle, attached SelCache) is itself
// concurrency-safe. Configuration calls (UseCache) must happen before
// estimation starts. See DESIGN.md "Concurrency and caching".
type Estimator struct {
	db    *DB
	est   *core.Estimator
	cache *SelCache
}

// NewEstimator returns an estimator over the pool using the given error
// model.
func (db *DB) NewEstimator(pool *Pool, model Model) *Estimator {
	est := core.NewEstimator(db.cat, pool.pool, model.internal())
	if model == Opt {
		est.Oracle = db.ev
	}
	return &Estimator{db: db, est: est}
}

// Tier identifies which rung of the degradation ladder answered, in
// descending fidelity order.
type Tier = robust.Tier

// The ladder's tiers: the full getSelectivity DP, its greedy-chain
// restriction, greedy view matching, and base-histogram independence.
const (
	TierFullDP     = robust.TierFullDP
	TierBudgetedDP = robust.TierBudgetedDP
	TierGVM        = robust.TierGVM
	TierNoSIT      = robust.TierNoSIT
)

// Provenance records how an answer was produced: the tier that answered,
// and — when it was not the full DP — why each higher tier fell through.
type Provenance = robust.Provenance

// Answer is one query's estimate and its provenance.
type Answer struct {
	// Cardinality is the estimated result size, always finite and ≥ 0 (0
	// when Err is set).
	Cardinality float64
	// Selectivity is relative to the cartesian product of the query's
	// tables, always finite and in [0,1] (0 when Err is set).
	Selectivity float64
	// Provenance reports the ladder tier that answered and why the tiers
	// above it fell through.
	Provenance Provenance
	// Err is non-nil when estimation failed outright: a nil query, or a
	// panic that escaped every tier (its reason is also in
	// Provenance.FallbackReason).
	Err error
}

// Estimate answers the query through the degradation ladder: the full
// getSelectivity DP, then its greedy-chain restriction, greedy view
// matching and base-histogram independence, each tried only when the one
// above it aborts, panics or leaves [0,1]. On healthy statistics the full
// DP answers, bit-identically to a Run over the same query, and the
// provenance is TierFullDP with an empty FallbackReason.
//
// The context's deadline and cancellation bound the work. Unlike the served
// ladder, which caps the full DP at 200,000 memo misses, Estimate sets no
// node budget. That cap counts one miss per predicate subset, so it can only
// bind at 18 or more predicates: 17 predicates have at most 2^17 = 131,072
// subsets. No workload in this repository reaches 18.
//
// Failures stay inside the Answer: a nil query or a panic that escapes
// every tier sets Err instead of unwinding the caller.
func (e *Estimator) Estimate(ctx context.Context, q *Query) (ans Answer) {
	defer func() {
		if rec := recover(); rec != nil {
			reason := fmt.Sprintf("panic: %v", rec)
			ans = Answer{Err: errors.New("condsel: estimation failed: " + reason)}
			ans.Provenance.FallbackReason = reason
		}
	}()
	if q == nil {
		return Answer{Err: errors.New("condsel: nil query")}
	}
	lad := robust.New(e.est, robust.Config{NodeBudget: -1})
	ans.Selectivity, ans.Cardinality, ans.Provenance = lad.Estimate(ctx, q.q)
	return ans
}

// Explain returns the chosen decomposition: each conditional factor with
// its estimate and the statistics used.
func (e *Estimator) Explain(q *Query) string {
	r := e.est.NewRun(q.q)
	s := r.Explain(q.q.All())
	r.Release()
	return s
}

// Run starts a per-query estimation session that memoizes across sub-query
// requests — the way an optimizer consumes the estimator (§4).
func (e *Estimator) Run(q *Query) *Run {
	return &Run{query: q, run: e.est.NewRun(q.q)}
}

// GroupCount estimates the number of groups of GROUP BY attr over the
// query's result — the Group-By extension the paper defers to its
// companion thesis. The estimate uses the best-matching SIT's distinct
// statistics on the query expression with a Cardenas correction for groups
// the remaining predicates empty out.
func (e *Estimator) GroupCount(q *Query, attr string) (float64, error) {
	a, err := e.db.cat.Attr(attr)
	if err != nil {
		return 0, err
	}
	r := e.est.NewRun(q.q)
	groups := r.EstimateGroups(a, q.q.All())
	r.Release()
	return groups, nil
}

// Run is a per-query estimation session. Sub-queries are addressed by
// predicate positions (see Query.Predicates).
type Run struct {
	query *Query
	run   *core.Run
}

// Cardinality estimates the sub-query restricted to the predicates at the
// given positions (all predicates when none are given).
func (r *Run) Cardinality(predIdx ...int) (float64, error) {
	set, err := r.subset(predIdx)
	if err != nil {
		return 0, err
	}
	return r.run.EstimateCardinality(set), nil
}

// Selectivity estimates the sub-query's selectivity.
func (r *Run) Selectivity(predIdx ...int) (float64, error) {
	set, err := r.subset(predIdx)
	if err != nil {
		return 0, err
	}
	return r.run.GetSelectivity(set).Sel, nil
}

// Explain renders the decomposition chosen for the sub-query.
func (r *Run) Explain(predIdx ...int) (string, error) {
	set, err := r.subset(predIdx)
	if err != nil {
		return "", err
	}
	return r.run.Explain(set), nil
}

func (r *Run) subset(predIdx []int) (engine.PredSet, error) {
	if len(predIdx) == 0 {
		return r.query.q.All(), nil
	}
	var set engine.PredSet
	for _, i := range predIdx {
		if i < 0 || i >= len(r.query.q.Preds) {
			return 0, fmt.Errorf("condsel: predicate index %d out of range [0,%d)",
				i, len(r.query.q.Preds))
		}
		set = set.Add(i)
	}
	return set, nil
}

// GVMEstimator is the greedy view-matching baseline (Bruno & Chaudhuri
// SIGMOD'02) the paper compares against; it is exposed for side-by-side
// evaluation.
type GVMEstimator struct {
	db  *DB
	est *gvm.Estimator
}

// NewGVMEstimator returns the baseline estimator over the pool.
func (db *DB) NewGVMEstimator(pool *Pool) *GVMEstimator {
	return &GVMEstimator{db: db, est: gvm.NewEstimator(db.cat, pool.pool)}
}

// Cardinality estimates the query's result size with greedy view matching.
func (g *GVMEstimator) Cardinality(q *Query) float64 {
	return g.est.EstimateCardinality(q.q, q.q.All())
}

// Selectivity estimates the query's selectivity with greedy view matching.
func (g *GVMEstimator) Selectivity(q *Query) float64 {
	return g.est.EstimateSelectivity(q.q, q.q.All())
}

// BestPlan chooses the cheapest join order for the query under this
// estimator's cardinalities (System-R style dynamic programming over
// connected table subsets, C_out cost = sum of join-output cardinalities)
// and returns the plan rendering and its estimated cost. It demonstrates
// how estimation quality translates into plan choice; the paper leaves
// that study as future work, and `cmd/sitbench -fig p1` quantifies it.
func (e *Estimator) BestPlan(q *Query) (string, float64, error) {
	run := e.est.NewRun(q.q)
	plan, err := planner.Choose(q.q, run.EstimateCardinality)
	if err != nil {
		run.Release()
		return "", 0, err
	}
	cost := planner.Cost(plan, run.EstimateCardinality)
	run.Release()
	return plan.String(q.q), cost, nil
}

// CoupledCardinality estimates the query through the §4.2 optimizer
// integration: a Cascades-style memo is seeded with the query's initial
// plan, explored with transformation rules, and every memo entry
// contributes one candidate decomposition. This demonstrates the pruned,
// optimizer-guided variant of getSelectivity.
func (e *Estimator) CoupledCardinality(q *Query) (float64, error) {
	m, err := cascades.NewMemo(q.q)
	if err != nil {
		return 0, err
	}
	m.Explore(20000)
	ce := cascades.NewCoupledEstimator(m, e.est)
	ce.EstimateAll()
	return ce.EstimateCardinality(), nil
}
