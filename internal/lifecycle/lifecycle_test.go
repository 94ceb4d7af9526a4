package lifecycle

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"condsel/internal/core"
	"condsel/internal/engine"
	"condsel/internal/faults"
)

// The fault-injection harness is process-global, so tests in this file run
// serially (no t.Parallel): a schedule armed by one must not leak into
// another's estimates.

// estimateAll runs each query's full-set selectivity through the estimator.
func estimateAll(est *core.Estimator, queries []*engine.Query) []float64 {
	out := make([]float64, len(queries))
	for i, q := range queries {
		out[i] = est.NewRun(q).GetSelectivity(q.All()).Sel
	}
	return out
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// instantSleep skips backoff waits while preserving cancellation semantics;
// tests record the requested delays to assert the schedule.
func instantSleep(record *[]time.Duration, mu *sync.Mutex) SleepFunc {
	return func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		*record = append(*record, d)
		mu.Unlock()
		return ctx.Err()
	}
}

// TestCrashRecovery is the kill-mid-checkpoint scenario: a good checkpoint,
// then a torn one (crash between data write and fsync), then a restart. The
// restarted manager must load the prior snapshot generation, report the torn
// file, restore quarantine/parked counts, and estimate bit-identically to a
// manager that never crashed.
func TestCrashRecovery(t *testing.T) {
	db, queries, pool := snapEnv(t)
	dir := t.TempDir()
	cfg := Config{Dir: dir, Workers: 1, MaxRetries: 2}

	// Park one statistic via persistent rebuild failure, quarantine another.
	var delays []time.Duration
	var dmu sync.Mutex
	cfg.Sleep = instantSleep(&delays, &dmu)
	m1 := New(db.Cat, pool, cfg)
	sits := m1.Pool().SITs()
	if len(sits) < 2 {
		t.Fatal("pool too small for the scenario")
	}
	parkedID, quarID := sits[0].ID(), sits[1].ID()

	faults.Arm(faults.NewSchedule(1).Set(faults.RebuildFail, faults.Rule{}))
	if err := m1.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !m1.MarkStale(parkedID, "test: force rebuild") {
		t.Fatalf("MarkStale(%q) = false", parkedID)
	}
	waitFor(t, "statistic to park", func() bool {
		for _, rec := range m1.Health().States {
			if rec.ID == parkedID && rec.State == StateParked {
				return true
			}
		}
		return false
	})
	faults.Disarm()
	// Stop the workers before quarantining: a running worker would heal the
	// quarantined statistic before the checkpoints record it. The process
	// still dies without a final snapshot.
	if err := stopWithoutCheckpoint(m1); err != nil {
		t.Fatal(err)
	}
	m1.Pool().Quarantine(quarID, "test: operator pull")

	// Good checkpoint, then a torn one.
	if _, err := m1.Checkpoint(); err != nil {
		t.Fatalf("good checkpoint: %v", err)
	}
	goodSeq := m1.Health().CheckpointSeq
	faults.Arm(faults.NewSchedule(1).Set(faults.SnapshotTornWrite, faults.Rule{Limit: 1}))
	if _, err := m1.Checkpoint(); err == nil {
		t.Fatal("torn checkpoint reported no error")
	}
	faults.Disarm()

	// Restart.
	m2, err := Open(db.Cat, nil, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	h := m2.Health()
	if h.CheckpointSeq != goodSeq {
		t.Fatalf("recovered checkpoint seq %d, want %d", h.CheckpointSeq, goodSeq)
	}
	if len(h.CorruptSnapshots) != 1 || !strings.Contains(h.CorruptSnapshots[0].Reason, "torn payload") {
		t.Fatalf("corrupt snapshots = %+v, want one torn-payload report", h.CorruptSnapshots)
	}
	if h.Parked != 1 {
		t.Fatalf("recovered parked count = %d, want 1", h.Parked)
	}
	var quarRec *StatusRecord
	for i := range h.States {
		if h.States[i].ID == quarID {
			quarRec = &h.States[i]
		}
	}
	if quarRec == nil || quarRec.State != StateStale {
		t.Fatalf("quarantined statistic not restored as stale: %+v", quarRec)
	}

	// Estimates after recovery are bit-identical to a never-crashed manager
	// holding the same snapshot contents. The quarantined statistic was
	// excluded from the snapshot pool, so the reference is the live pool the
	// good checkpoint saw: m1's published pool at checkpoint time.
	ref := estimateAll(core.NewEstimator(db.Cat, m1.Pool(), core.Diff{}), queries)
	got := estimateAll(m2.Estimator(), queries)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("query %d: recovered estimate %v != never-crashed estimate %v", i, got[i], ref[i])
		}
	}
}

// stopWithoutCheckpoint drains workers without writing a final snapshot —
// modeling a process that dies rather than shutting down cleanly.
func stopWithoutCheckpoint(m *Manager) error {
	m.mu.Lock()
	cancel := m.cancel
	m.cancel = nil
	running := m.running
	m.running = false
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if running {
		m.wg.Wait()
	}
	return nil
}

// TestDriftDetectRebuildHotSwap: after the data drifts (Reskew), observations
// with large q-error mark the statistics the estimate read stale; workers
// rebuild them from the changed data; each changed rebuild publishes a new
// epoch whose generation differs; manager-fronted estimates through a shared
// cross-query cache stay bit-identical to a cache-free estimator over the
// published pool (no mixed-epoch cache value can be served); retired
// generations' cache entries are purged; and epoch-guarded observations
// against the retired generation are dropped.
func TestDriftDetectRebuildHotSwap(t *testing.T) {
	db, queries, pool := snapEnv(t)
	cache := core.NewSelCache(1 << 12)
	cfg := Config{
		Workers:         2,
		DriftThreshold:  2,
		MinObservations: 2,
		Alpha:           0.5,
		Cache:           cache,
	}
	var delays []time.Duration
	var dmu sync.Mutex
	cfg.Sleep = instantSleep(&delays, &dmu)
	m := New(db.Cat, pool, cfg)
	gen0 := m.Generation()
	oldEst := m.Estimator()
	oldBefore := estimateAll(oldEst, queries)

	// Warm the shared cache against the first epoch.
	_ = estimateAll(m.Estimator(), queries)

	// The data drifts, then execution feedback reports estimates off by
	// 1000× on the first query. The workers start after the feedback, so
	// every observation is charged against the first epoch.
	db.Reskew(7, 3.0, true)
	q := queries[0]
	for i := 0; i < 4; i++ {
		m.Observe(q, q.All(), 10, 10_000)
	}
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	waitFor(t, "drifted statistics to be rebuilt and swapped", func() bool {
		h := m.Health()
		return h.Swaps >= 1 && h.Stale == 0 && h.Rebuilding == 0
	})

	if m.Generation() == gen0 {
		t.Fatal("hot-swap did not change the pool generation")
	}

	// The initial generation's cache entries were evicted at the swap. (This
	// check runs before anything re-touches the retired epoch's estimator,
	// which would legitimately re-insert gen0-keyed entries.)
	if n := cache.EvictIf(func(k core.CacheKey) bool { return k.Gen == gen0 }); n != 0 {
		t.Fatalf("%d cache entries of the retired generation survived the swap", n)
	}

	// No mixed-epoch cache values: manager-fronted estimates (shared cache,
	// warmed under the old generation) equal a cache-free estimator over the
	// published pool, bit for bit.
	ref := estimateAll(core.NewEstimator(db.Cat, m.Pool(), core.Diff{}), queries)
	got := estimateAll(m.Estimator(), queries)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("query %d: post-swap estimate %v != cache-free reference %v", i, got[i], ref[i])
		}
	}

	// Epoch purity: the old epoch still answers, bit-identically to before.
	oldAfter := estimateAll(oldEst, queries)
	for i := range oldBefore {
		if oldAfter[i] != oldBefore[i] {
			t.Fatalf("query %d: in-flight epoch's estimate changed across the swap: %v != %v",
				i, oldAfter[i], oldBefore[i])
		}
	}

	// Epoch-guarded observations against the retired generation are dropped.
	before := m.Health().DroppedObservations
	m.ObserveAt(gen0, q, q.All(), 10, 10_000)
	if got := m.Health().DroppedObservations; got != before+1 {
		t.Fatalf("DroppedObservations = %d, want %d", got, before+1)
	}
}

// TestQuarantineHeals: a statistic quarantined at runtime is detected by the
// manager, rebuilt, and returns to service in a fresh epoch with a clean
// quarantine ledger.
func TestQuarantineHeals(t *testing.T) {
	db, _, pool := snapEnv(t)
	var delays []time.Duration
	var dmu sync.Mutex
	m := New(db.Cat, pool, Config{Workers: 1, Sleep: instantSleep(&delays, &dmu)})
	id := m.Pool().SITs()[0].ID()
	if !m.Pool().Quarantine(id, "test: rotted") {
		t.Fatal("Quarantine returned false")
	}
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	m.SyncQuarantine()
	waitFor(t, "quarantined statistic to heal", func() bool {
		h := m.Pool().HealthSnapshot()
		return h.Quarantined == 0 && m.Pool().Lookup(id) != nil
	})
	h := m.Health()
	if h.Rebuilds < 1 || h.Swaps < 1 {
		t.Fatalf("heal did not go through rebuild+swap: %+v", h)
	}
}

// TestParkAfterMaxRetries: persistent rebuild failure parks the statistic
// after exactly MaxRetries attempts, with the waits following the
// deterministic backoff schedule — and the worker never tight-loops on it
// afterwards.
func TestParkAfterMaxRetries(t *testing.T) {
	db, _, pool := snapEnv(t)
	var delays []time.Duration
	var dmu sync.Mutex
	cfg := Config{
		Workers:     1,
		MaxRetries:  3,
		Seed:        17,
		BackoffBase: 100 * time.Millisecond,
		BackoffCap:  time.Second,
		Sleep:       instantSleep(&delays, &dmu),
	}
	m := New(db.Cat, pool, cfg)
	id := m.Pool().SITs()[0].ID()

	sched := faults.NewSchedule(1).Set(faults.RebuildFail, faults.Rule{})
	faults.Arm(sched)
	defer faults.Disarm()

	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	m.MarkStale(id, "test")
	waitFor(t, "statistic to park", func() bool {
		for _, rec := range m.Health().States {
			if rec.ID == id && rec.State == StateParked {
				return true
			}
		}
		return false
	})

	h := m.Health()
	if h.Failures != 3 {
		t.Fatalf("failures = %d, want exactly MaxRetries (3)", h.Failures)
	}
	dmu.Lock()
	gotDelays := append([]time.Duration(nil), delays...)
	dmu.Unlock()
	want := []time.Duration{
		Backoff(cfg.BackoffBase, cfg.BackoffCap, cfg.Seed, id, 0),
		Backoff(cfg.BackoffBase, cfg.BackoffCap, cfg.Seed, id, 1),
	}
	if len(gotDelays) != len(want) {
		t.Fatalf("waits = %v, want %d backoff waits", gotDelays, len(want))
	}
	for i := range want {
		if gotDelays[i] != want[i] {
			t.Fatalf("wait %d = %v, want %v (deterministic schedule)", i, gotDelays[i], want[i])
		}
	}

	// Parked means parked: no further attempts arrive on their own.
	fires := sched.Fires(faults.RebuildFail)
	time.Sleep(20 * time.Millisecond)
	if got := sched.Fires(faults.RebuildFail); got != fires {
		t.Fatalf("rebuild attempts continued after parking: %d -> %d", fires, got)
	}

	// Revive re-enters the loop (and parks again under the armed fault).
	if !m.Revive(id) {
		t.Fatal("Revive returned false for a parked statistic")
	}
	waitFor(t, "revived statistic to park again", func() bool {
		h := m.Health()
		return h.Failures >= 6
	})
}

// TestStopCheckpointsAndRestarts: Stop writes a final snapshot; a fresh Open
// resumes from it with states intact and the same estimates.
func TestStopCheckpointsAndRestarts(t *testing.T) {
	db, queries, pool := snapEnv(t)
	dir := t.TempDir()
	cfg := Config{Dir: dir, Workers: 1}
	m1 := New(db.Cat, pool, cfg)
	if err := m1.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ref := estimateAll(m1.Estimator(), queries)
	if err := m1.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}

	m2, err := Open(db.Cat, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h := m2.Health(); len(h.CorruptSnapshots) != 0 || h.CheckpointSeq == 0 {
		t.Fatalf("clean restart reported %+v", h)
	}
	got := estimateAll(m2.Estimator(), queries)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("query %d: restarted estimate %v != original %v", i, got[i], ref[i])
		}
	}
}

// TestStopReturnsWithQueuedRebuild: Stop returns promptly after a rebuild
// was queued, so every worker loop observes cancellation. A worker that
// drains the queue without a ctx.Done() arm (`for id := range m.queue`)
// waits forever on a channel nobody closes, and Stop hangs in its wait.
func TestStopReturnsWithQueuedRebuild(t *testing.T) {
	db, _, pool := snapEnv(t)
	m := New(db.Cat, pool, Config{Workers: 2})
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	id := m.Pool().SITs()[0].ID()
	if !m.MarkStale(id, "test: queue a rebuild") {
		t.Fatalf("MarkStale(%q) = false", id)
	}
	stopped := make(chan error, 1)
	go func() { stopped <- m.Stop() }()
	const bound = 5 * time.Second
	select {
	case err := <-stopped:
		if err != nil {
			t.Fatalf("Stop: %v", err)
		}
	case <-time.After(bound):
		t.Fatalf("Stop did not return within %v: a worker ignores cancellation", bound)
	}
}

// TestOpenWithoutSnapshots: an empty directory falls back to the provided
// pool with no issues reported.
func TestOpenWithoutSnapshots(t *testing.T) {
	db, _, pool := snapEnv(t)
	m, err := Open(db.Cat, pool, Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if m.Pool().Size() != pool.Size() {
		t.Fatalf("fallback pool not used")
	}
	if h := m.Health(); len(h.CorruptSnapshots) != 0 || h.CheckpointSeq != 0 {
		t.Fatalf("fresh Open reported %+v", h)
	}
}

// TestUnusedManagerIsFree is the structural half of the ≤1% overhead
// criterion (the timing half lives in the lifecycle benchmark): fronting an
// estimator with a manager changes nothing about the estimates.
func TestUnusedManagerIsFree(t *testing.T) {
	db, queries, pool := snapEnv(t)
	bare := estimateAll(core.NewEstimator(db.Cat, pool, core.Diff{}), queries)
	m := New(db.Cat, pool, Config{})
	fronted := estimateAll(m.Estimator(), queries)
	for i := range bare {
		if fronted[i] != bare[i] {
			t.Fatalf("query %d: manager-fronted estimate %v != bare %v", i, fronted[i], bare[i])
		}
	}
}
