package robust

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"condsel/internal/core"
	"condsel/internal/engine"
	"condsel/internal/faults"
	"condsel/internal/sit"
)

// fixture builds the repository's standard 3-table correlated star and its
// 4-predicate query (two joins, two filters).
type fixture struct {
	cat   *engine.Catalog
	query *engine.Query
	pool  *sit.Pool
}

func newFixture(seed int64) *fixture {
	rng := rand.New(rand.NewSource(seed))
	cat := engine.NewCatalog()
	const nCustomers, nOrders = 50, 250

	cid := make([]int64, nCustomers)
	nation := make([]int64, nCustomers)
	for i := range cid {
		cid[i] = int64(i)
		if rng.Float64() < 0.8 {
			nation[i] = 1
		} else {
			nation[i] = int64(2 + rng.Intn(20))
		}
	}
	cat.MustAddTable(&engine.Table{Name: "customer", Cols: []*engine.Column{
		{Name: "id", Vals: cid},
		{Name: "nation", Vals: nation},
	}})

	oid := make([]int64, nOrders)
	ocid := make([]int64, nOrders)
	price := make([]int64, nOrders)
	var liOID, liQty []int64
	for i := range oid {
		oid[i] = int64(i)
		ocid[i] = int64(rng.Intn(nCustomers))
		price[i] = int64(rng.Intn(1000))
		items := 1
		if price[i] > 800 {
			items = 15
		}
		for k := 0; k < items; k++ {
			liOID = append(liOID, oid[i])
			liQty = append(liQty, int64(rng.Intn(50)))
		}
	}
	cat.MustAddTable(&engine.Table{Name: "orders", Cols: []*engine.Column{
		{Name: "id", Vals: oid},
		{Name: "cid", Vals: ocid},
		{Name: "price", Vals: price},
	}})
	cat.MustAddTable(&engine.Table{Name: "lineitem", Cols: []*engine.Column{
		{Name: "oid", Vals: liOID},
		{Name: "qty", Vals: liQty},
	}})

	preds := []engine.Pred{
		engine.Join(cat.MustAttr("lineitem.oid"), cat.MustAttr("orders.id")),
		engine.Join(cat.MustAttr("orders.cid"), cat.MustAttr("customer.id")),
		engine.Filter(cat.MustAttr("orders.price"), 801, 1000),
		engine.Eq(cat.MustAttr("customer.nation"), 1),
	}
	q := engine.NewQuery(cat, preds)
	pool := sit.BuildWorkloadPool(sit.NewBuilder(cat), []*engine.Query{q}, 2)
	return &fixture{cat: cat, query: q, pool: pool}
}

func (f *fixture) ladder(cfg Config) *Estimator {
	return New(core.NewEstimator(f.cat, f.pool, core.NInd{}), cfg)
}

// checkValue asserts the ladder's core contract on an estimate.
func checkValue(t *testing.T, label string, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		t.Fatalf("%s = %v, want finite non-negative", label, v)
	}
}

// expiredCtx returns an already-cancelled context.
func expiredCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestUnarmedBitIdentity: with no faults, no deadline and healthy stats the
// ladder's answer is bit-identical to the plain estimator's, at TierFullDP
// with empty fallback reason.
func TestUnarmedBitIdentity(t *testing.T) {
	t.Parallel()
	f := newFixture(1)
	lad := f.ladder(Config{})

	plain := core.NewEstimator(f.cat, f.pool, core.NInd{})
	want := plain.NewRun(f.query).GetSelectivity(f.query.All()).Sel

	sel, prov := lad.Selectivity(context.Background(), f.query, f.query.All())
	if sel != want {
		t.Fatalf("ladder sel %v != plain sel %v (must be bit-identical)", sel, want)
	}
	if prov.Tier != TierFullDP || prov.FallbackReason != "" {
		t.Fatalf("provenance = %+v, want clean TierFullDP", prov)
	}

	card, prov2 := lad.Cardinality(nil, f.query)
	wantCard := want * f.cat.CrossSize(engine.PredsTables(f.cat, f.query.Preds, f.query.All()))
	if card != wantCard || prov2.Tier != TierFullDP {
		t.Fatalf("cardinality = %v (%+v), want %v at TierFullDP", card, prov2, wantCard)
	}
}

// TestNodeBudgetDegradesToGreedyChain: an absurdly small node budget aborts
// the full DP and the greedy chain answers.
func TestNodeBudgetDegradesToGreedyChain(t *testing.T) {
	t.Parallel()
	f := newFixture(2)
	lad := f.ladder(Config{NodeBudget: 1})
	sel, prov := lad.Selectivity(context.Background(), f.query, f.query.All())
	checkValue(t, "budget-capped sel", sel)
	if sel > 1 {
		t.Fatalf("sel = %v > 1", sel)
	}
	if prov.Tier != TierBudgetedDP {
		t.Fatalf("tier = %v, want budgeted-dp; reason %q", prov.Tier, prov.FallbackReason)
	}
	if !strings.Contains(prov.FallbackReason, "node budget exhausted") {
		t.Fatalf("reason %q does not name the node budget", prov.FallbackReason)
	}
}

// TestExpiredDeadlineDegradesToNoSIT: a dead context fails every deadline-
// honoring tier in order; the independence tier (which must answer) does.
func TestExpiredDeadlineDegradesToNoSIT(t *testing.T) {
	t.Parallel()
	f := newFixture(3)
	lad := f.ladder(Config{})
	sel, prov := lad.Selectivity(expiredCtx(), f.query, f.query.All())
	checkValue(t, "expired-deadline sel", sel)
	if sel > 1 {
		t.Fatalf("sel = %v > 1", sel)
	}
	if prov.Tier != TierNoSIT {
		t.Fatalf("tier = %v, want no-sit; reason %q", prov.Tier, prov.FallbackReason)
	}
	// Degradation must be ordered: every abandoned rung is accounted for.
	for _, rung := range []string{"full-dp:", "budgeted-dp:", "gvm:"} {
		if !strings.Contains(prov.FallbackReason, rung) {
			t.Fatalf("reason %q missing rung %q", prov.FallbackReason, rung)
		}
	}
}

// faultMatrix drives each injection point through the ladder and asserts the
// expected landing tier. Not parallel: arming is process-global.
func TestFaultMatrix(t *testing.T) {
	defer faults.Disarm()
	cases := []struct {
		name      string
		schedule  *faults.Schedule
		wantTiers []Tier // acceptable landing tiers, most expected first
	}{
		// A single injected panic kills the full DP (the first ApproxFactor
		// call panics); the fresh greedy-chain run is past the fault's Limit
		// and answers.
		{"panic-once", faults.NewSchedule(1).Set(faults.PanicInFactor, faults.Rule{Limit: 1}), []Tier{TierBudgetedDP}},
		// Unlimited panics kill both DP tiers; GVM never calls ApproxFactor,
		// so it answers.
		{"panic-always", faults.NewSchedule(1).Set(faults.PanicInFactor, faults.Rule{}), []Tier{TierGVM}},
		// One NaN factor: the poisoned candidate may or may not win the DP's
		// error competition, so the full DP either answers clean or is
		// rejected by the invariant guard and the (now fault-free) greedy
		// chain answers. Either way the NaN itself must never be served.
		{"nan-once", faults.NewSchedule(1).Set(faults.NaNSelectivity, faults.Rule{Limit: 1}), []Tier{TierFullDP, TierBudgetedDP}},
		// Every factor NaN: both DP tiers produce out-of-range values and
		// are rejected; GVM answers.
		{"nan-always", faults.NewSchedule(1).Set(faults.NaNSelectivity, faults.Rule{}), []Tier{TierGVM}},
		// Quarantine: every SIT is rotten on first validation. Estimation
		// still succeeds at full fidelity — with fallback selectivities —
		// because quarantine degrades statistics, not the algorithm.
		{"corrupt-all", faults.NewSchedule(1).Set(faults.CorruptBucket, faults.Rule{}), []Tier{TierFullDP}},
		// An eviction storm only costs recomputation; values are unchanged
		// and the full DP answers.
		{"evict-storm", faults.NewSchedule(1).Set(faults.CacheEvictStorm, faults.Rule{}), []Tier{TierFullDP}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer faults.Disarm()
			f := newFixture(4) // fresh fixture: fresh pool, no cross-case quarantine
			lad := f.ladder(Config{})
			faults.Arm(tc.schedule)
			sel, prov := lad.Selectivity(context.Background(), f.query, f.query.All())
			faults.Disarm()
			checkValue(t, tc.name+" sel", sel)
			if sel > 1 {
				t.Fatalf("%s: sel = %v > 1", tc.name, sel)
			}
			ok := false
			for _, want := range tc.wantTiers {
				if prov.Tier == want {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("%s: tier = %v, want one of %v (reason %q)", tc.name, prov.Tier, tc.wantTiers, prov.FallbackReason)
			}
			if prov.Tier != TierFullDP && prov.FallbackReason == "" {
				t.Fatalf("%s: degraded answer carries no fallback reason", tc.name)
			}
		})
	}
}

// TestCorruptBucketQuarantinesThroughLadder: the corrupt-bucket fault drives
// the pool's quarantine and the ladder keeps answering in range.
func TestCorruptBucketQuarantinesThroughLadder(t *testing.T) {
	defer faults.Disarm()
	f := newFixture(5)
	lad := f.ladder(Config{})
	faults.Arm(faults.NewSchedule(1).Set(faults.CorruptBucket, faults.Rule{}))
	sel, _ := lad.Selectivity(context.Background(), f.query, f.query.All())
	faults.Disarm()
	checkValue(t, "quarantined sel", sel)
	h := f.pool.HealthSnapshot()
	if h.Quarantined == 0 {
		t.Fatal("corrupt-bucket fault quarantined nothing")
	}
	if h.SITs != 0 {
		t.Fatalf("health reports %d healthy SITs under an always-corrupt fault", h.SITs)
	}
}

// TestEvictStormPreservesValues: with a shared cross-query cache under an
// eviction storm, estimates equal the uncached estimator's bit for bit —
// eviction can only cost recomputation. Not parallel (global arming).
func TestEvictStormPreservesValues(t *testing.T) {
	defer faults.Disarm()
	f := newFixture(6)
	plain := core.NewEstimator(f.cat, f.pool, core.NInd{})
	want := plain.NewRun(f.query).GetSelectivity(f.query.All()).Sel

	cached := core.NewEstimator(f.cat, f.pool, core.NInd{})
	cached.Cache = core.NewSelCache(256)
	lad := New(cached, Config{})
	faults.Arm(faults.NewSchedule(1).Set(faults.CacheEvictStorm, faults.Rule{Every: 2}))
	for i := 0; i < 3; i++ {
		sel, prov := lad.Selectivity(context.Background(), f.query, f.query.All())
		if sel != want {
			t.Fatalf("round %d: sel %v != uncached %v under eviction storm", i, sel, want)
		}
		if prov.Tier != TierFullDP {
			t.Fatalf("round %d: tier = %v", i, prov.Tier)
		}
	}
}

// TestSlowFactorDeterministicDelay: the slow-factor point fires on schedule
// (counted) and estimation still answers correctly. Not parallel.
func TestSlowFactorDeterministicDelay(t *testing.T) {
	defer faults.Disarm()
	f := newFixture(7)
	lad := f.ladder(Config{})
	s := faults.NewSchedule(1).Set(faults.SlowFactor, faults.Rule{Limit: 3})
	s.SlowFactorDelay = 1 // 1ns: exercise the sleep path without slowing the suite
	faults.Arm(s)
	sel, prov := lad.Selectivity(context.Background(), f.query, f.query.All())
	faults.Disarm()
	checkValue(t, "slow-factor sel", sel)
	if prov.Tier != TierFullDP {
		t.Fatalf("tier = %v (a delay alone must not degrade without a deadline)", prov.Tier)
	}
	if s.Fires(faults.SlowFactor) != 3 {
		t.Fatalf("slow-factor fired %d times, want 3", s.Fires(faults.SlowFactor))
	}
}

// TestSlowFactorHonorsDeadline: an injected SlowFactor delay ends at the
// request's deadline. Under a 10 ms deadline a 200 ms delay must not hold
// the request for 200 ms; the ladder answers from a lower tier and names
// the deadline. Not parallel.
func TestSlowFactorHonorsDeadline(t *testing.T) {
	defer faults.Disarm()
	f := newFixture(7)
	lad := f.ladder(Config{})
	s := faults.NewSchedule(1).Set(faults.SlowFactor, faults.Rule{Limit: 1})
	s.SlowFactorDelay = 200 * time.Millisecond
	faults.Arm(s)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	sel, prov := lad.Selectivity(ctx, f.query, f.query.All())
	elapsed := time.Since(start)
	faults.Disarm()
	checkValue(t, "slow-factor sel", sel)
	if s.Fires(faults.SlowFactor) != 1 {
		t.Fatalf("slow-factor fired %d times, want 1", s.Fires(faults.SlowFactor))
	}
	if elapsed >= 100*time.Millisecond {
		t.Fatalf("ladder answered after %v: the %v fault sleep outlived the 10ms deadline", elapsed, s.SlowFactorDelay)
	}
	if prov.Tier == TierFullDP || !strings.Contains(prov.FallbackReason, "deadline") {
		t.Fatalf("tier %v, reason %q: want a degraded tier and a deadline reason", prov.Tier, prov.FallbackReason)
	}
}

// TestLadderNeverInvalidUnderChaos: probabilistic multi-point schedules
// across many seeds; every answer must satisfy the ladder contract. Not
// parallel.
func TestLadderNeverInvalidUnderChaos(t *testing.T) {
	defer faults.Disarm()
	f := newFixture(8)
	for seed := int64(0); seed < 12; seed++ {
		s := faults.NewSchedule(seed).
			Set(faults.PanicInFactor, faults.Rule{Prob: 0.2}).
			Set(faults.NaNSelectivity, faults.Rule{Prob: 0.2}).
			Set(faults.CacheEvictStorm, faults.Rule{Prob: 0.3})
		faults.Arm(s)
		lad := f.ladder(Config{})
		sel, prov := lad.Selectivity(context.Background(), f.query, f.query.All())
		card, _ := lad.Cardinality(context.Background(), f.query)
		faults.Disarm()
		checkValue(t, "chaos sel", sel)
		if sel > 1 {
			t.Fatalf("seed %d: sel = %v > 1", seed, sel)
		}
		checkValue(t, "chaos card", card)
		if prov.Tier > TierNoSIT {
			t.Fatalf("seed %d: tier out of range: %v", seed, prov.Tier)
		}
	}
}

// TestTierNames: provenance tiers render distinct names.
func TestTierNames(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	for _, tier := range []Tier{TierFullDP, TierBudgetedDP, TierGVM, TierNoSIT} {
		name := tier.String()
		if name == "" || seen[name] {
			t.Fatalf("tier %d has empty or duplicate name %q", tier, name)
		}
		seen[name] = true
	}
}
