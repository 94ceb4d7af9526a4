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

// TestLifecycleHealsDriftedStatistic drives the full public loop: feedback
// with large errors marks statistics stale, the workers rebuild and hot-swap
// them, and Health reports the heal.
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
		if h.Swaps >= 1 && h.Stale == 0 && h.Rebuilding == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	h := m.Health()
	if h.Swaps < 1 {
		t.Fatalf("no hot-swap after drift: %+v", h)
	}
	if m.Generation() == gen0 {
		t.Fatal("hot-swap did not advance the pool generation")
	}
	healed := 0
	for _, rec := range h.States {
		healed += rec.Healed
	}
	if healed == 0 {
		t.Fatalf("no statistic reports a heal: %+v", h.States)
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
