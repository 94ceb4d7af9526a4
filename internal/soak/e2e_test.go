package soak

import (
	"context"
	"runtime"
	"testing"
	"time"

	"condsel/internal/core"
	"condsel/internal/datagen"
	"condsel/internal/engine"
	"condsel/internal/lifecycle"
	"condsel/internal/sit"
	"condsel/internal/workload"
)

// TestE2ESelfHealingArc asserts every link of the self-healing chain
// explicitly, on a grown multi-cluster schema, under the race detector (CI
// runs this suite with -race): injected skew drift → lifecycle drift
// detection and rebuild → pool generation bump → no selcache entry of the
// retired generation served → bit-identical estimates after the hot-swap.
func TestE2ESelfHealingArc(t *testing.T) {
	grown := datagen.GenerateGrown(datagen.GrownConfig{
		Config: datagen.Config{Seed: 5, FactRows: 1200},
		Tables: 16,
	})
	db := grown.Shards[0]
	gen := workload.NewGenerator(db, workload.Config{Seed: 5, Joins: 3, Filters: 2})
	var hot []*engine.Query
	for i := 0; i < 6; i++ {
		q, err := gen.Query()
		if err != nil {
			t.Fatalf("hot query %d: %v", i, err)
		}
		hot = append(hot, q)
	}
	pool := sit.BuildWorkloadPoolParallel(db.Cat, hot, 2, runtime.GOMAXPROCS(0), nil)
	cache := core.NewSelCache(1 << 16)
	mgr := lifecycle.New(db.Cat, pool, lifecycle.Config{
		Workers:         2,
		Seed:            5,
		Dir:             t.TempDir(),
		Cache:           cache,
		DriftThreshold:  2,
		MinObservations: 3,
		Alpha:           0.5,
	})
	ctx := context.Background()
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()

	// Warm the cross-query cache under the initial generation.
	gen0 := mgr.Generation()
	estimateAll(mgr.Estimator(), hot)
	if cache.Len() == 0 {
		t.Fatalf("warmup left no generation-%d cache entries", gen0)
	}

	// Link 1: inject skew drift — invert the Zipf popularity of every
	// measure and foreign key, so the pre-drift SITs are maximally wrong.
	grown.Reskew(99, 3.0, true)
	truth := engine.NewEvaluator(db.Cat)

	// Link 2: a feedback burst over the hot set drives the q-error EWMAs
	// past the drift threshold. Workers are stopped during the burst so
	// every observation lands against the pinned pre-drift epoch.
	if err := mgr.Stop(); err != nil {
		t.Fatal(err)
	}
	stale := mgr.Estimator()
	for pass := 0; pass < obsPasses; pass++ {
		for _, q := range hot {
			sel := stale.NewRun(q).GetSelectivity(q.All()).Sel
			ts := engine.PredsTables(q.Cat, q.Preds, q.All())
			mgr.ObserveAt(gen0, q, q.All(), sel*q.Cat.CrossSize(ts),
				truth.Count(q.Tables, q.Preds, q.All()))
		}
	}
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := quiesce(ctx, mgr, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	hl := mgr.Health()
	if hl.Rebuilds == 0 {
		t.Fatal("drift burst triggered no rebuild")
	}
	if hl.Swaps == 0 {
		t.Fatal("rebuilds published no epoch hot-swap")
	}
	if hl.DroppedObservations != 0 {
		t.Fatalf("%d observations dropped — the burst was not pinned to the pre-drift epoch",
			hl.DroppedObservations)
	}

	// Link 3: the published pool carries a new generation.
	gen1 := mgr.Generation()
	if gen1 == gen0 {
		t.Fatalf("pool generation did not bump (still %d)", gen0)
	}

	// Link 4: the retired generation's entries stay in the cache until the
	// LRU evicts them, but the new generation's keys never find them: the
	// manager's first pass misses each query's full set (a hit there would
	// end the query's lookups without a miss), and its second pass is served
	// from the repopulated cache alone.
	est := mgr.Estimator()
	warm := make([]float64, len(hot))
	for i, q := range hot {
		misses := cache.Stats().Misses
		warm[i] = est.NewRun(q).GetSelectivity(q.All()).Sel
		if cache.Stats().Misses == misses {
			t.Fatalf("query %d: the first pass after the hot-swap hit its full set", i)
		}
	}
	st := cache.Stats()
	cached := estimateAll(est, hot)
	if got := cache.Stats(); got.Misses != st.Misses || got.Hits != st.Hits+int64(len(hot)) {
		t.Fatalf("second pass moved the cache from %+v to %+v, want %d hits and no miss", st, got, len(hot))
	}

	// Link 5: post-swap estimates are bit-identical between the
	// manager-fronted estimator (cache attached, twice — the second pass is
	// served from the repopulated cache) and a cache-free estimator over the
	// published pool.
	ref := estimateAll(core.NewEstimator(db.Cat, mgr.Pool(), core.Diff{}), hot)
	for i := range ref {
		if warm[i] != ref[i] || cached[i] != ref[i] {
			t.Fatalf("query %d not bit-identical after hot-swap: ref=%v warm=%v cached=%v",
				i, ref[i], warm[i], cached[i])
		}
	}
}
