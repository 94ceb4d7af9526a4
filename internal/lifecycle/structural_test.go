package lifecycle

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"condsel/internal/core"
	"condsel/internal/datagen"
	"condsel/internal/engine"
	"condsel/internal/histogram"
	"condsel/internal/sit"
	"condsel/internal/workload"
)

// readIDs returns the IDs of the pool statistics the estimator's chosen
// decomposition of q reads.
func readIDs(est *core.Estimator, q *engine.Query) map[string]bool {
	run := est.NewRun(q)
	defer run.Release()
	ids := make(map[string]bool)
	for _, s := range run.SITsRead(q.All()) {
		if est.Pool.Lookup(s.ID()) != nil {
			ids[s.ID()] = true
		}
	}
	return ids
}

// record returns the manager's status record for id (zero when untracked).
func record(m *Manager, id string) StatusRecord {
	for _, rec := range m.Health().States {
		if rec.ID == id {
			return rec
		}
	}
	return StatusRecord{ID: id}
}

// settled waits until no statistic is stale or rebuilding and at least
// rebuilds rebuilds have completed.
func settled(t *testing.T, m *Manager, rebuilds int64) {
	t.Helper()
	waitFor(t, "rebuilds to settle", func() bool {
		c := m.CountersSnapshot()
		return c.Rebuilds >= rebuilds && c.Stale == 0 && c.Rebuilding == 0
	})
}

// reproduceOne gives the statistics q's decomposition reads an EWMA through
// feedback no threshold reaches, forces one of them through a rebuild over
// unchanged data, and waits for the verdict. It returns the statistic's ID
// and its EWMA before the rebuild.
func reproduceOne(t *testing.T, m *Manager, q *engine.Query) (string, float64) {
	t.Helper()
	ids := readIDs(m.Estimator(), q)
	if len(ids) == 0 {
		t.Fatal("the decomposition reads no pool statistic")
	}
	for i := 0; i < 3; i++ {
		m.Observe(q, q.All(), 10, 10_000)
	}
	var id string
	for cand := range ids {
		if id == "" || cand < id {
			id = cand
		}
	}
	ewma := record(m, id).EWMA
	before := m.CountersSnapshot().Rebuilds
	if !m.MarkStale(id, "test: rebuild over unchanged data") {
		t.Fatalf("MarkStale(%q) = false", id)
	}
	settled(t, m, before+1)
	return id, ewma
}

// TestStructuralRebuildPublishesNothing: a rebuild that reproduces the
// served statistic publishes nothing. The generation and the epoch's
// estimator survive, so re-estimating the queries only hits the selcache;
// Swaps stays, Rebuilds counts it, and the statistic reads structural with
// a reason and its EWMA as the baseline.
func TestStructuralRebuildPublishesNothing(t *testing.T) {
	db, queries, pool := snapEnv(t)
	cache := core.NewSelCache(1 << 12)
	var delays []time.Duration
	var dmu sync.Mutex
	m := New(db.Cat, pool, Config{Workers: 1, DriftThreshold: 1e12, Cache: cache, Sleep: instantSleep(&delays, &dmu)})
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	_ = estimateAll(m.Estimator(), queries)
	gen0, est0 := m.Generation(), m.Estimator()
	if cache.Len() == 0 {
		t.Fatal("warm-up left no cache entries")
	}
	h0 := m.Health()

	id, ewma := reproduceOne(t, m, queries[0])

	h := m.Health()
	if h.Rebuilds != h0.Rebuilds+1 || h.Swaps != h0.Swaps {
		t.Fatalf("rebuilds %d → %d, swaps %d → %d; want one more rebuild and no swap",
			h0.Rebuilds, h.Rebuilds, h0.Swaps, h.Swaps)
	}
	if m.Generation() != gen0 || m.Estimator() != est0 {
		t.Fatal("a reproduced rebuild published a new epoch")
	}
	st := cache.Stats()
	_ = estimateAll(m.Estimator(), queries)
	if got := cache.Stats(); got.Misses != st.Misses || got.Hits != st.Hits+int64(len(queries)) {
		t.Fatalf("re-estimating after a reproduced rebuild moved the cache from %+v to %+v, want %d hits and no miss",
			st, got, len(queries))
	}
	if h.Structural != 1 || h.Stale != 0 || h.Rebuilding != 0 {
		t.Fatalf("health after one reproduced rebuild: %+v", h)
	}
	rec := record(m, id)
	if rec.State != StateStructural || rec.Reason == "" || rec.Baseline != ewma || ewma <= 1 || rec.Healed != 0 {
		t.Fatalf("reproduced statistic %s: %+v, want structural with baseline %v", id, rec, ewma)
	}
}

// TestStructuralBaselineReflag: a structural statistic is not flagged again
// below DriftThreshold × baseline and is flagged at it; after the data
// changes, its rebuild publishes and resets the baseline to 1.
func TestStructuralBaselineReflag(t *testing.T) {
	db, queries, pool := snapEnv(t)
	var delays []time.Duration
	var dmu sync.Mutex
	// Alpha 1 makes the EWMA the last observation's q-error, so the test
	// sets it exactly.
	m := New(db.Cat, pool, Config{Workers: 1, DriftThreshold: 2, MinObservations: 1, Alpha: 1,
		Sleep: instantSleep(&delays, &dmu)})
	q := queries[0]
	ids := readIDs(m.Estimator(), q)
	states := func() map[State]int {
		out := make(map[State]int)
		for id := range ids {
			out[record(m, id).State]++
		}
		return out
	}

	// q-error (8+1)/(2+1) = 3 flags every statistic read; each rebuild
	// reproduces its statistic, which turns structural at baseline 3.
	ctx := context.Background()
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	m.Observe(q, q.All(), 2, 8)
	settled(t, m, int64(len(ids)))
	if got := states(); got[StateStructural] != len(ids) {
		t.Fatalf("states after reproduced rebuilds: %v, want %d structural", got, len(ids))
	}
	for id := range ids {
		if b := record(m, id).Baseline; b != 3 {
			t.Fatalf("%s: baseline %v, want 3", id, b)
		}
	}
	if err := m.Stop(); err != nil {
		t.Fatal(err)
	}

	// With the workers stopped a flagged statistic stays stale. q-error
	// (10+1)/(1+1) = 5.5 is below 2 × 3; (5+1)/(0+1) = 6 reaches it.
	m.Observe(q, q.All(), 1, 10)
	if got := states(); got[StateStructural] != len(ids) {
		t.Fatalf("q-error 5.5 below threshold × baseline 6 flagged statistics: %v", got)
	}
	m.Observe(q, q.All(), 0, 5)
	if got := states(); got[StateStale] != len(ids) {
		t.Fatalf("q-error 6 at threshold × baseline 6 left statistics unflagged: %v", got)
	}

	// The data changes under the flagged statistics. A rebuild that changes
	// its statistic publishes and resets the baseline; one the change did
	// not reach reproduces and stays structural.
	before := m.Pool()
	rebuilds, swaps := m.Health().Rebuilds, m.Health().Swaps
	db.Reskew(11, 3.0, true)
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	settled(t, m, rebuilds+int64(len(ids)))
	after := m.Pool()
	changed := 0
	for id := range ids {
		rec := record(m, id)
		if after.Lookup(id).SameContent(before.Lookup(id)) {
			if rec.State != StateStructural || rec.Baseline != 6 {
				t.Fatalf("%s reproduced: %+v, want structural at baseline 6", id, rec)
			}
			continue
		}
		changed++
		if rec.State != StateHealthy || rec.Baseline != 1 || rec.Healed != 1 {
			t.Fatalf("%s changed: %+v, want healthy at baseline 1", id, rec)
		}
	}
	if changed == 0 {
		t.Fatal("Reskew changed none of the statistics read")
	}
	if got := m.Health().Swaps - swaps; got != int64(changed) {
		t.Fatalf("%d swaps for %d changed rebuilds", got, changed)
	}
}

// TestStructuralBaselineFallsWithEWMA: a statistic read together with one
// whose data really changed shares that statistic's q-error, so its
// reproduced rebuild leaves an inflated baseline. Once the changed statistic
// is healed and feedback is accurate again, the baseline falls with the
// EWMA, and a later change to the statistic's own data is flagged at
// ordinary q-error and published.
func TestStructuralBaselineFallsWithEWMA(t *testing.T) {
	db, queries, pool := snapEnv(t)
	q := queries[0]
	var ids []string
	for id := range readIDs(core.NewEstimator(db.Cat, pool, core.Diff{}), q) {
		ids = append(ids, id)
	}
	if len(ids) < 2 {
		t.Fatalf("the decomposition reads %d pool statistics, want two or more", len(ids))
	}
	sort.Strings(ids)
	first, second := ids[0], ids[1]

	// changed lists the statistics whose data has changed: their rebuild
	// counts one more row in its first bucket than the data it was built on.
	var mu sync.Mutex
	changed := make(map[string]bool)
	rebuild := func(attr engine.AttrID, expr []engine.Pred) (*sit.SIT, error) {
		s := sit.NewBuilder(db.Cat).Build(attr, expr)
		mu.Lock()
		defer mu.Unlock()
		if !changed[s.ID()] {
			return s, nil
		}
		h := *s.Hist
		h.Buckets = append([]histogram.Bucket(nil), h.Buckets...)
		h.Buckets[0].Count++
		h.Rows++
		if h.TotalRows > 0 {
			h.TotalRows++
		}
		return sit.NewSIT(db.Cat, attr, expr, &h, s.Diff), nil
	}
	var delays []time.Duration
	var dmu sync.Mutex
	// Alpha 1 makes the EWMA the last observation's q-error.
	m := New(db.Cat, pool, Config{Workers: 1, DriftThreshold: 2, MinObservations: 1, Alpha: 1,
		Rebuild: rebuild, Sleep: instantSleep(&delays, &dmu)})
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	// The first statistic's data changes; q-error (10000+1)/(10+1) flags
	// every statistic read. The first publishes, the second reproduces with
	// the shared error as its baseline.
	mu.Lock()
	changed[first] = true
	mu.Unlock()
	shared := qError(10, 10_000)
	m.Observe(q, q.All(), 10, 10_000)
	settled(t, m, int64(len(ids)))
	if rec := record(m, first); rec.State != StateHealthy || rec.Healed != 1 {
		t.Fatalf("changed statistic %s: %+v, want healed", first, rec)
	}
	if rec := record(m, second); rec.State != StateStructural || rec.Baseline != shared {
		t.Fatalf("co-read statistic %s: %+v, want structural at baseline %v", second, rec, shared)
	}
	if !readIDs(m.Estimator(), q)[second] {
		t.Fatal("the published epoch's decomposition no longer reads the second statistic")
	}

	// Accurate feedback: the baseline falls with the EWMA to 1.
	m.Observe(q, q.All(), 100, 100)
	if rec := record(m, second); rec.State != StateStructural || rec.Baseline != 1 {
		t.Fatalf("after accurate feedback %s: %+v, want structural at baseline 1", second, rec)
	}

	// The second statistic's data changes: q-error (8+1)/(2+1) = 3 reaches
	// 2 × 1, and its changed rebuild publishes.
	mu.Lock()
	changed[second] = true
	mu.Unlock()
	h0 := m.Health()
	m.Observe(q, q.All(), 2, 8)
	settled(t, m, h0.Rebuilds+int64(len(ids)))
	if rec := record(m, second); rec.State != StateHealthy || rec.Baseline != 1 || rec.Healed != 1 {
		t.Fatalf("after its data changed %s: %+v, want healed at baseline 1", second, rec)
	}
	if got := m.Health().Swaps - h0.Swaps; got != 1 {
		t.Fatalf("%d swaps after the second change, want 1", got)
	}
}

// TestObserveChargesDecomposition: an observation advances Obs on exactly the
// pool statistics the chosen decomposition reads, and on no base histogram
// of the query's attributes that the decomposition did not read. The TwoDim
// case runs over a pool with 2-D statistics, as PoolOptions.TwoDim builds
// one: a decomposition that reads a derived SIT (§3.3 Example 3) charges
// the pool statistic it was derived from, also where no other factor reads
// that statistic.
func TestObserveChargesDecomposition(t *testing.T) {
	t.Run("1-D", func(t *testing.T) {
		db, queries, pool := snapEnv(t)
		if unread, _ := checkCharges(t, db.Cat, queries, pool); unread == 0 {
			t.Fatal("every base histogram is read; the fixture cannot tell the rules apart")
		}
	})
	t.Run("TwoDim", func(t *testing.T) {
		db := datagen.Generate(datagen.Config{Seed: 31, FactRows: 1500})
		queries, err := workload.NewGenerator(db, workload.Config{Seed: 31, NumQueries: 6, Joins: 2, Filters: 2}).Generate()
		if err != nil {
			t.Fatal(err)
		}
		b := sit.NewBuilder(db.Cat)
		pool := sit.BuildWorkloadPool(b, queries, 1)
		if _, err := sit.Build2DBaseSITs(b, pool, queries); err != nil {
			t.Fatal(err)
		}
		if _, viaDerived := checkCharges(t, db.Cat, queries, pool); viaDerived == 0 {
			t.Fatal("no statistic is read only through a derived SIT; the fixture cannot tell the rules apart")
		}
	})
}

// checkCharges observes every query once on a fresh manager over the pool
// and fails unless exactly the statistics the decomposition reads advanced.
// It returns how many base histograms of the queries' attributes went
// unread, and how many charged statistics Explain does not name, which are
// read only through a derived SIT.
func checkCharges(t *testing.T, cat *engine.Catalog, queries []*engine.Query, pool *sit.Pool) (unread, viaDerived int) {
	t.Helper()
	m := New(cat, pool, Config{DriftThreshold: 1e12})
	est := core.NewEstimator(cat, pool, core.Diff{})
	for qi, q := range queries {
		want := readIDs(est, q)
		for _, p := range q.Preds {
			for _, a := range p.Attrs() {
				if b := pool.Base(a); b != nil && !want[b.ID()] {
					unread++
				}
			}
		}
		run := est.NewRun(q)
		explain := run.Explain(q.All())
		run.Release()
		obs := make(map[string]int)
		for _, rec := range m.Health().States {
			obs[rec.ID] = rec.Obs
		}
		m.Observe(q, q.All(), 10, 1000)
		for _, s := range pool.SITs() {
			got := record(m, s.ID()).Obs - obs[s.ID()]
			if want[s.ID()] && got != 1 {
				t.Fatalf("query %d: read statistic %s advanced by %d observations, want 1", qi, s.Name(cat), got)
			}
			if !want[s.ID()] && got != 0 {
				t.Fatalf("query %d: unread statistic %s charged (%d)", qi, s.Name(cat), got)
			}
			if want[s.ID()] && !strings.Contains(explain, s.Name(cat)) {
				viaDerived++
			}
		}
	}
	return unread, viaDerived
}

// TestStructuralSnapshotRoundtrip: a checkpoint keeps a structural
// statistic's state and baseline, and a state record without a baseline
// loads with 1.
func TestStructuralSnapshotRoundtrip(t *testing.T) {
	db, queries, pool := snapEnv(t)
	dir := t.TempDir()
	var delays []time.Duration
	var dmu sync.Mutex
	m1 := New(db.Cat, pool, Config{Dir: dir, Workers: 1, DriftThreshold: 1e12, Sleep: instantSleep(&delays, &dmu)})
	if err := m1.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	id, ewma := reproduceOne(t, m1, queries[0])
	if err := m1.Stop(); err != nil { // writes the final checkpoint
		t.Fatal(err)
	}

	m2, err := Open(db.Cat, nil, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := record(m2, id), record(m1, id); got != want || got.State != StateStructural || got.Baseline != ewma {
		t.Fatalf("restored %+v, checkpointed %+v", got, want)
	}
	if h := m2.Health(); h.Structural != 1 || h.Stale != 0 {
		t.Fatalf("restored health %+v", h)
	}

	var other *sit.SIT
	for _, s := range m2.Pool().SITs() {
		if s.ID() != id {
			other = s
			break
		}
	}
	m2.mu.Lock()
	m2.restoreStateLocked(&stateRecord{ID: other.ID(), State: "healthy", EWMA: 3, Obs: 2})
	m2.mu.Unlock()
	if rec := record(m2, other.ID()); rec.Baseline != 1 || rec.State != StateHealthy {
		t.Fatalf("record without a baseline restored as %+v, want healthy at baseline 1", rec)
	}
}
