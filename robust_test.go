package condsel_test

import (
	"context"
	"math"
	"strings"
	"testing"

	condsel "condsel"
	"condsel/internal/faults"
)

// robustWorld builds a snowflake database, workload and J1 pool for the
// public robust-API tests (fresh per test — quarantine mutates pools).
func robustWorld(t *testing.T) (*condsel.DB, []*condsel.Query, *condsel.Pool) {
	t.Helper()
	db := condsel.GenerateSnowflake(condsel.SnowflakeConfig{Seed: 21, FactRows: 400})
	queries, err := db.GenerateWorkload(condsel.WorkloadOptions{Seed: 21, NumQueries: 6, Joins: 2, Filters: 2})
	if err != nil {
		t.Fatal(err)
	}
	return db, queries, db.BuildStatistics(queries, 1, nil)
}

// checkEstimateMatchesRun asserts that Estimate answers every query at
// TierFullDP with an empty FallbackReason, with a cardinality and
// selectivity bit-identical to a Run over the same query.
func checkEstimateMatchesRun(t *testing.T, est *condsel.Estimator, queries []*condsel.Query) {
	t.Helper()
	for i, q := range queries {
		run := est.Run(q)
		wantCard, err := run.Cardinality()
		if err != nil {
			t.Fatal(err)
		}
		wantSel, err := run.Selectivity()
		if err != nil {
			t.Fatal(err)
		}
		ans := est.Estimate(context.Background(), q)
		if ans.Err != nil {
			t.Fatalf("query %d: %v", i, ans.Err)
		}
		if ans.Cardinality != wantCard || ans.Selectivity != wantSel {
			t.Fatalf("query %d: estimate (card %v, sel %v) != run (card %v, sel %v); must be bit-identical",
				i, ans.Cardinality, ans.Selectivity, wantCard, wantSel)
		}
		if ans.Provenance.Tier != condsel.TierFullDP || ans.Provenance.FallbackReason != "" {
			t.Fatalf("query %d: provenance %+v, want clean TierFullDP", i, ans.Provenance)
		}
	}
}

// TestRobustMatchesPlainUnarmed: with healthy statistics and no deadline,
// the ladder behind Estimate answers from the full DP, bit-identically to
// the plain per-query Run, under every model and with or without a cache —
// the whole fault-tolerance layer costs nothing when nothing is wrong.
func TestRobustMatchesPlainUnarmed(t *testing.T) {
	t.Parallel()
	db, queries, pool := robustWorld(t)
	for _, model := range []condsel.Model{condsel.NInd, condsel.Diff, condsel.Opt} {
		checkEstimateMatchesRun(t, db.NewEstimator(pool, model), queries)
		checkEstimateMatchesRun(t, db.NewEstimator(pool, model).UseCache(condsel.NewSelCache(1024)), queries)
	}
}

// TestRobustExpiredDeadline: a dead context still yields a finite in-range
// answer, at a degraded tier with an explanatory provenance.
func TestRobustExpiredDeadline(t *testing.T) {
	t.Parallel()
	db, queries, pool := robustWorld(t)
	est := db.NewEstimator(pool, condsel.Diff)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ans := est.Estimate(ctx, queries[0])
	if ans.Err != nil {
		t.Fatalf("dead context failed the estimate: %v", ans.Err)
	}
	if card := ans.Cardinality; math.IsNaN(card) || math.IsInf(card, 0) || card < 0 {
		t.Fatalf("cardinality under dead context = %v", card)
	}
	if prov := ans.Provenance; prov.Tier == condsel.TierFullDP || prov.FallbackReason == "" {
		t.Fatalf("dead context did not degrade: %+v", prov)
	}
}

// TestEstimateBatchRobustIsolation: a nil query fails alone, in a batch as
// in a single call — its Answer carries the error, every other query
// answers exactly as its own Estimate does.
func TestEstimateBatchRobustIsolation(t *testing.T) {
	t.Parallel()
	db, queries, pool := robustWorld(t)
	est := db.NewEstimator(pool, condsel.Diff)
	if ans := est.Estimate(context.Background(), nil); ans.Err == nil {
		t.Fatal("nil query produced no error")
	}
	batch := append([]*condsel.Query{queries[0], nil}, queries[1:]...)
	answers := est.EstimateBatch(context.Background(), batch, 4)
	if len(answers) != len(batch) {
		t.Fatalf("%d answers for %d queries", len(answers), len(batch))
	}
	for i, ans := range answers {
		if batch[i] == nil {
			if ans.Err == nil {
				t.Fatalf("answer %d: nil query produced no error", i)
			}
			continue
		}
		if want := est.Estimate(context.Background(), batch[i]); ans != want {
			t.Fatalf("answer %d: %+v != single estimate %+v", i, ans, want)
		}
		if ans.Provenance.Tier != condsel.TierFullDP {
			t.Fatalf("answer %d: tier %v", i, ans.Provenance.Tier)
		}
	}
}

// TestEstimateBatchInjectedPanicIsolation: a panic injected into one
// factor computation, somewhere inside a batch run by four workers,
// degrades exactly that query's answer — with the injection named in its
// provenance — while the nil entry fails alone and every other answer is
// bit-identical to its healthy estimate. The fault schedule is
// process-global, so this test stays serial.
func TestEstimateBatchInjectedPanicIsolation(t *testing.T) {
	db, queries, pool := robustWorld(t)
	est := db.NewEstimator(pool, condsel.Diff)
	batch := append(append([]*condsel.Query{}, queries...), nil)
	healthy := est.EstimateBatch(context.Background(), batch, 1)

	sched := faults.NewSchedule(1).Set(faults.PanicInFactor, faults.Rule{Limit: 1})
	faults.Arm(sched)
	answers := est.EstimateBatch(context.Background(), batch, 4)
	faults.Disarm()
	if got := sched.Fires(faults.PanicInFactor); got != 1 {
		t.Fatalf("panic-in-factor fired %d times, want 1", got)
	}

	injected := faults.Injected{Point: faults.PanicInFactor}.Error()
	degraded := 0
	for i, ans := range answers {
		switch {
		case batch[i] == nil:
			if ans.Err == nil {
				t.Fatalf("answer %d: nil query produced no error", i)
			}
		case ans.Provenance.Tier != condsel.TierFullDP:
			degraded++
			if ans.Err != nil || !strings.Contains(ans.Provenance.FallbackReason, injected) {
				t.Fatalf("answer %d: degraded answer %+v does not name %q", i, ans, injected)
			}
		case ans != healthy[i]:
			t.Fatalf("answer %d: %+v != healthy %+v", i, ans, healthy[i])
		}
	}
	if degraded != 1 {
		t.Fatalf("%d answers below full-dp, want exactly 1", degraded)
	}
}

// TestPoolHealthAndQuarantinePublic: a snapshot smuggling a corrupt
// histogram loads, the corrupt statistic is quarantined on first use, Health
// reports it, and estimation keeps answering in range.
func TestPoolHealthAndQuarantinePublic(t *testing.T) {
	t.Parallel()
	db, queries, _ := robustWorld(t)
	snapshot := `{"version":1,"sits":[
		{"attr":"product.id","diff":0,"hist":{"rows":40,"buckets":[{"Lo":0,"Hi":39,"Count":40,"Distinct":40}]}},
		{"attr":"product.category_fk","diff":0,"hist":{"rows":40,"buckets":[{"Lo":9,"Hi":0,"Count":40,"Distinct":3}]}}
	]}`
	pool, err := db.LoadPool(strings.NewReader(snapshot))
	if err != nil {
		t.Fatalf("LoadPool: %v", err)
	}
	if h := pool.Health(); h.Quarantined != 0 {
		t.Fatalf("pre-use health already quarantined: %+v", h)
	}
	est := db.NewEstimator(pool, condsel.Diff)
	ans := est.Estimate(context.Background(), queries[0])
	if card := ans.Cardinality; math.IsNaN(card) || card < 0 {
		t.Fatalf("cardinality with corrupt pool = %v", card)
	}
	if ans.Provenance.Tier != condsel.TierFullDP {
		t.Fatalf("corrupt statistics degraded the tier: %+v (quarantine should handle them)", ans.Provenance)
	}
	h := pool.Health()
	if h.Quarantined != 1 || h.SITs != 1 {
		t.Fatalf("health = %+v, want 1 healthy + 1 quarantined", h)
	}
	for id, reason := range h.Reasons {
		if !strings.Contains(reason, "inverted") {
			t.Fatalf("quarantine reason for %s = %q, want the inverted bucket named", id, reason)
		}
		// Manual re-quarantine of an already-pulled statistic is a no-op.
		if pool.Quarantine(id, "again") {
			t.Fatalf("Quarantine re-accepted already-quarantined %s", id)
		}
	}
	if pool.Quarantine("no-such-id", "x") {
		t.Fatal("Quarantine accepted an unknown ID")
	}
}
