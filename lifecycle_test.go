package condsel_test

import (
	"context"
	"testing"
	"time"

	condsel "condsel"
)

// lifecycleWorld builds a snowflake database, workload and J1 pool for the
// public lifecycle-API tests (fresh per test — the manager owns the pool).
func lifecycleWorld(t *testing.T) (*condsel.DB, []*condsel.Query, *condsel.Pool) {
	t.Helper()
	db := condsel.GenerateSnowflake(condsel.SnowflakeConfig{Seed: 31, FactRows: 400})
	queries, err := db.GenerateWorkload(condsel.WorkloadOptions{Seed: 31, NumQueries: 4, Joins: 2, Filters: 1})
	if err != nil {
		t.Fatal(err)
	}
	return db, queries, db.BuildStatistics(queries, 1, nil)
}

// TestLifecycleFrontingIsFree: a manager-fronted estimator answers
// bit-identically to a bare estimator over the same pool.
func TestLifecycleFrontingIsFree(t *testing.T) {
	t.Parallel()
	db, queries, pool := lifecycleWorld(t)
	bare := db.NewEstimator(pool, condsel.Diff)
	m := db.NewLifecycle(pool, nil)
	for i, q := range queries {
		if got, want := m.Estimator().Estimate(context.Background(), q).Cardinality, bare.Estimate(context.Background(), q).Cardinality; got != want {
			t.Fatalf("query %d: managed estimate %v != bare %v", i, got, want)
		}
	}
	h := m.Health()
	if h.Stale != 0 || h.Parked != 0 || h.Healthy == 0 {
		t.Fatalf("fresh manager health = %+v", h)
	}
}

// TestLifecycleObserveHitsManagerCache: feedback on a query estimated
// through the manager finds the decomposition it charges in the manager's
// cross-query cache, so Observe costs a cache hit, not a second full DP.
func TestLifecycleObserveHitsManagerCache(t *testing.T) {
	t.Parallel()
	db, queries, pool := lifecycleWorld(t)
	m := db.NewLifecycle(pool, nil)
	est := m.Estimator()
	if est.Cache() == nil {
		t.Fatal("a manager-fronted estimator has no cache")
	}
	for i, q := range queries {
		ans := est.Estimate(context.Background(), q)
		before := est.Cache().Stats()
		m.Observe(q, ans.Cardinality, 2*ans.Cardinality)
		after := est.Cache().Stats()
		if after.Misses != before.Misses || after.Hits != before.Hits+1 {
			t.Fatalf("query %d: Observe moved the cache from %+v to %+v, want one hit and no miss", i, before, after)
		}
	}
}

// TestLifecycleUseCacheIsPrivate: UseCache on one manager-fronted estimator
// changes that estimator's cache alone. Estimates through a fresh
// Manager.Estimator fill the cache its Cache reports, the manager's, and
// leave the attached cache empty; estimates through the estimator the cache
// was attached to fill only the attached cache.
func TestLifecycleUseCacheIsPrivate(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	db, queries, pool := lifecycleWorld(t)
	m := db.NewLifecycle(pool, nil)
	other := condsel.NewSelCache(1 << 10)
	mine := m.Estimator().UseCache(other)
	if mine.Cache() != other {
		t.Fatal("UseCache did not attach the cache")
	}

	fresh := m.Estimator()
	shared := fresh.Cache()
	if shared == nil || shared == other {
		t.Fatalf("a fresh manager estimator reports cache %p, want the manager's, not the attached %p", shared, other)
	}
	for _, q := range queries {
		fresh.Estimate(ctx, q)
	}
	if n := other.Stats().Entries; n != 0 {
		t.Fatalf("a fresh manager estimator put %d entries into the cache attached to another", n)
	}
	filled := shared.Stats().Entries
	if filled == 0 {
		t.Fatal("a fresh manager estimator put nothing into the cache it reports")
	}

	for _, q := range queries {
		mine.Estimate(ctx, q)
	}
	if other.Stats().Entries == 0 {
		t.Fatal("the estimator the cache was attached to put nothing into it")
	}
	if n := shared.Stats().Entries; n != filled {
		t.Fatalf("estimates through the attached cache changed the manager's cache from %d to %d entries", filled, n)
	}
}

// TestLifecycleHealsDriftedStatistic drives the full public loop over data
// the public API cannot change: feedback with large errors marks the
// statistics the estimate read stale, the workers rebuild them, every
// rebuild reproduces its statistic, and Health reports the structural
// verdict: the rebuilds are counted, no epoch is swapped in, the generation
// stays, and the statistics read "structural" with their baseline.
func TestLifecycleHealsDriftedStatistic(t *testing.T) {
	t.Parallel()
	db, queries, pool := lifecycleWorld(t)
	m := db.NewLifecycle(pool, &condsel.LifecycleOptions{
		DriftThreshold:  2,
		MinObservations: 2,
		Workers:         2,
	})
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	gen0 := m.Generation()
	q := queries[0]
	for i := 0; i < 4; i++ {
		m.Observe(q, 10, 1e6) // estimates off by 10^5
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		h := m.Health()
		if h.Rebuilds >= 1 && h.Stale == 0 && h.Rebuilding == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	h := m.Health()
	if h.Rebuilds < 1 || h.Stale != 0 || h.Rebuilding != 0 {
		t.Fatalf("drift feedback did not settle into counted rebuilds: %+v", h)
	}
	if h.Swaps != 0 {
		t.Fatalf("a reproduced rebuild hot-swapped: %+v", h)
	}
	if m.Generation() != gen0 {
		t.Fatal("a reproduced rebuild advanced the pool generation")
	}
	if h.Structural != int(h.Rebuilds) {
		t.Fatalf("%d structural statistics after %d reproduced rebuilds", h.Structural, h.Rebuilds)
	}
	for _, rec := range h.States {
		if rec.State != "structural" || rec.Baseline < 2 || rec.Reason == "" || rec.Healed != 0 {
			t.Fatalf("statistic %s after a reproduced rebuild: %+v", rec.ID, rec)
		}
	}
}

// TestLifecycleCheckpointRestart: a checkpointed manager reopens from disk
// with identical estimates and a clean health report.
func TestLifecycleCheckpointRestart(t *testing.T) {
	t.Parallel()
	db, queries, pool := lifecycleWorld(t)
	opts := &condsel.LifecycleOptions{Dir: t.TempDir()}
	m1 := db.NewLifecycle(pool, opts)
	ref := make([]float64, len(queries))
	for i, q := range queries {
		ref[i] = m1.Estimator().Estimate(context.Background(), q).Cardinality
	}
	if _, err := m1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	m2, err := db.OpenLifecycle(nil, opts)
	if err != nil {
		t.Fatalf("OpenLifecycle: %v", err)
	}
	h := m2.Health()
	if len(h.CorruptSnapshots) != 0 || h.CheckpointSeq == 0 {
		t.Fatalf("restart health = %+v", h)
	}
	for i, q := range queries {
		if got := m2.Estimator().Estimate(context.Background(), q).Cardinality; got != ref[i] {
			t.Fatalf("query %d: restarted estimate %v != original %v", i, got, ref[i])
		}
	}
}
