package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"condsel/internal/core"
	"condsel/internal/lifecycle"
	"condsel/internal/sit"
	"condsel/internal/workload"
)

// LifecycleBenchConfig configures the statistics-lifecycle benchmark: the
// un-armed manager-fronted hot path is timed against a bare estimator (the
// manager's contract is one atomic load of overhead), rebuild throughput is
// measured by cycling every pool statistic through the rebuild queue over
// unchanged data, and snapshot write/recover latency is measured round-trip
// through the crash-safe persistence path.
type LifecycleBenchConfig struct {
	Queries   int // queries in the overhead workload (default 8)
	PoolJoins int // SIT pool J_i (default 2)
	Cycles    int // full stale→rebuilt cycles for throughput (default 3)
	Snapshots int // checkpoint/recover rounds (default 5)
}

func (c LifecycleBenchConfig) withDefaults() LifecycleBenchConfig {
	if c.Queries == 0 {
		c.Queries = 8
	}
	if c.PoolJoins == 0 {
		c.PoolJoins = 2
	}
	if c.Cycles == 0 {
		c.Cycles = 3
	}
	if c.Snapshots == 0 {
		c.Snapshots = 5
	}
	return c
}

// LifecycleBenchReport is the machine-readable BENCH_lifecycle.json artifact.
type LifecycleBenchReport struct {
	Seed      int64 `json:"seed"`
	FactRows  int   `json:"fact_rows"`
	Queries   int   `json:"queries"`
	PoolJoins int   `json:"pool_joins"`
	PoolSize  int   `json:"pool_size"`
	Workers   int   `json:"workers"`

	// Un-armed hot-path overhead: a manager-fronted estimate against a bare
	// estimator over identical queries and pool. The lifecycle contract is
	// ≤ 1% — the manager's only added cost is one atomic epoch load.
	Overhead

	// Rebuild throughput: statistics cycled stale → rebuilding → verdict per
	// second, bounded-concurrency workers included. The data does not
	// change, so every rebuild reproduces its statistic and publishes
	// nothing: Swaps counts the hot-swaps, 0 when the manager publishes only
	// a change.
	Rebuilds          int64   `json:"rebuilds"`
	Swaps             int64   `json:"swaps"`
	RebuildSeconds    float64 `json:"rebuild_seconds"`
	RebuildsPerSecond float64 `json:"rebuilds_per_second"`

	// Snapshot persistence: mean write (checkpoint) and recover (Open with
	// full verification) latency, and the snapshot size on disk.
	SnapshotWriteMs   float64 `json:"snapshot_write_ms"`
	SnapshotRecoverMs float64 `json:"snapshot_recover_ms"`
	SnapshotBytes     int64   `json:"snapshot_bytes"`
}

// LifecycleBench measures the lifecycle manager. Answers of the two overhead
// variants are compared before anything is timed: un-armed bit-identity is
// the manager's contract, enforced here as well as in tests. Both variants
// release their runs, as served code does.
func (e *Env) LifecycleBench(cfg LifecycleBenchConfig) LifecycleBenchReport {
	cfg = cfg.withDefaults()
	workers := runtime.GOMAXPROCS(0)
	report := LifecycleBenchReport{
		Seed:      e.Opts.Seed,
		FactRows:  e.Opts.FactRows,
		Queries:   cfg.Queries,
		PoolJoins: cfg.PoolJoins,
		Workers:   workers,
	}

	g := workload.NewGenerator(e.DB, workload.Config{
		Seed:              e.Opts.Seed + 77000,
		NumQueries:        cfg.Queries,
		Joins:             3,
		Filters:           2,
		TargetSelectivity: e.Opts.FilterSelectivity,
	})
	queries, err := g.Generate()
	if err != nil {
		panic(fmt.Sprintf("bench: lifecycle workload: %v", err))
	}
	pool := sit.BuildWorkloadPoolParallel(e.DB.Cat, queries, cfg.PoolJoins,
		workers, func(b *sit.Builder) { b.Buckets = e.Opts.Buckets })
	report.PoolSize = pool.Size()

	// --- Un-armed hot-path overhead -------------------------------------
	bare := core.NewEstimator(e.DB.Cat, pool, core.Diff{})
	mgr := lifecycle.New(e.DB.Cat, pool, lifecycle.Config{})
	estimate := func(est *core.Estimator, i int) float64 {
		r := est.NewRun(queries[i])
		sel := r.GetSelectivity(queries[i].All()).Sel
		r.Release()
		return sel
	}
	report.Overhead, err = measureOverhead(len(queries),
		func(i int) float64 { return estimate(bare, i) },
		func(i int) float64 { return estimate(mgr.Estimator(), i) })
	if err != nil {
		panic(fmt.Sprintf("bench: manager-fronted estimate diverged: %v", err))
	}

	// --- Rebuild throughput ----------------------------------------------
	rm := lifecycle.New(e.DB.Cat, pool, lifecycle.Config{Workers: workers, Seed: e.Opts.Seed})
	if err := rm.Start(context.Background()); err != nil {
		panic(fmt.Sprintf("bench: lifecycle start: %v", err))
	}
	ids := make([]string, 0, pool.Size())
	for _, s := range rm.Pool().SITs() {
		ids = append(ids, s.ID())
	}
	// Stay under the manager's queue depth so no mark is silently deferred
	// (a deferred statistic re-enters on the next observation, which this
	// closed-loop benchmark never produces).
	if len(ids) > 200 {
		ids = ids[:200]
	}
	start := time.Now()
	var target int64
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		for _, id := range ids {
			if rm.MarkStale(id, "bench cycle") {
				target++
			}
		}
		for rm.Health().Rebuilds < target {
			time.Sleep(time.Millisecond)
		}
	}
	report.RebuildSeconds = time.Since(start).Seconds()
	if err := rm.Stop(); err != nil {
		panic(fmt.Sprintf("bench: lifecycle stop: %v", err))
	}
	h := rm.Health()
	report.Rebuilds, report.Swaps = h.Rebuilds, h.Swaps
	if report.RebuildSeconds > 0 {
		report.RebuildsPerSecond = float64(report.Rebuilds) / report.RebuildSeconds
	}

	// --- Snapshot write / recover latency -------------------------------
	dir, err := os.MkdirTemp("", "condsel-lifecycle-bench-")
	if err != nil {
		panic(fmt.Sprintf("bench: snapshot dir: %v", err))
	}
	defer os.RemoveAll(dir)
	sm := lifecycle.New(e.DB.Cat, pool, lifecycle.Config{Dir: dir})
	var writeNs, recoverNs int64
	for round := 0; round < cfg.Snapshots; round++ {
		start := time.Now()
		path, err := sm.Checkpoint()
		if err != nil {
			panic(fmt.Sprintf("bench: checkpoint: %v", err))
		}
		writeNs += time.Since(start).Nanoseconds()
		if round == 0 {
			if info, err := os.Stat(path); err == nil {
				report.SnapshotBytes = info.Size()
			}
		}
		start = time.Now()
		if _, err := lifecycle.Open(e.DB.Cat, nil, lifecycle.Config{Dir: dir}); err != nil {
			panic(fmt.Sprintf("bench: recover: %v", err))
		}
		recoverNs += time.Since(start).Nanoseconds()
	}
	report.SnapshotWriteMs = float64(writeNs) / float64(cfg.Snapshots) / 1e6
	report.SnapshotRecoverMs = float64(recoverNs) / float64(cfg.Snapshots) / 1e6
	return report
}

// WriteLifecycleJSON writes the report inside the shared bench envelope.
func WriteLifecycleJSON(w io.Writer, r LifecycleBenchReport) error {
	return WriteReport(w, "lifecycle", r.Seed, r)
}

// RenderLifecycle prints the report as text.
func RenderLifecycle(w io.Writer, r LifecycleBenchReport) {
	fmt.Fprintf(w, "statistics lifecycle — %d queries, pool J%d (%d SITs), %d workers (seed %d)\n\n",
		r.Queries, r.PoolJoins, r.PoolSize, r.Workers, r.Seed)
	fmt.Fprintf(w, "hot path    %v\n", r.Overhead)
	fmt.Fprintf(w, "rebuilds    %d rebuilt in %.2fs = %.1f/s, %d hot-swapped\n",
		r.Rebuilds, r.RebuildSeconds, r.RebuildsPerSecond, r.Swaps)
	fmt.Fprintf(w, "snapshots   write %.2fms   recover %.2fms   (%d bytes)\n",
		r.SnapshotWriteMs, r.SnapshotRecoverMs, r.SnapshotBytes)
}
