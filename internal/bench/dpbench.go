package bench

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"condsel/internal/core"
	"condsel/internal/engine"
	"condsel/internal/sit"
	"condsel/internal/workload"
)

// DPBenchConfig configures the getSelectivity hot-path benchmark: for each
// query size the DP is timed end-to-end (NewRun + GetSelectivity of the full
// query) with the hot-path machinery disabled (NoFastPath baseline) and
// enabled, across error models.
type DPBenchConfig struct {
	Sizes     []int // total predicate counts (default 6,8,10,12)
	Queries   int   // queries measured per size (default 3)
	Iters     int   // timed passes over those queries per variant (default 2)
	PoolJoins int   // SIT pool J_i to estimate against (default 2)
}

func (c DPBenchConfig) withDefaults() DPBenchConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{6, 8, 10, 12}
	}
	if c.Queries == 0 {
		c.Queries = 3
	}
	if c.Iters == 0 {
		c.Iters = 2
	}
	if c.PoolJoins == 0 {
		c.PoolJoins = 2
	}
	return c
}

// DPBenchCell is one (size, model) measurement: baseline vs optimized
// nanoseconds per full-query GetSelectivity, with the pool's view-matching
// call counts as a second witness of the work avoided.
type DPBenchCell struct {
	N       int    `json:"n_preds"`
	Joins   int    `json:"joins"`
	Filters int    `json:"filters"`
	Model   string `json:"model"`

	BaselineNsPerOp  float64 `json:"baseline_ns_per_op"`
	OptimizedNsPerOp float64 `json:"optimized_ns_per_op"`
	Speedup          float64 `json:"speedup"`

	BaselineMatchCalls  int64 `json:"baseline_match_calls"`
	OptimizedMatchCalls int64 `json:"optimized_match_calls"`

	// Cached-path memory discipline: the optimized variant re-run against a
	// warm cross-query selectivity cache, measured for time and — the point
	// of the packed-signature work — heap traffic. On the steady-state
	// cached path both per-op numbers must be exactly zero; the CI alloc
	// gate (GateDP) enforces that.
	CachedNsPerOp     float64 `json:"cached_ns_per_op"`
	CachedAllocsPerOp float64 `json:"cached_allocs_per_op"`
	CachedBytesPerOp  float64 `json:"cached_bytes_per_op"`
}

// DPBenchReport is the machine-readable BENCH_dp.json artifact.
type DPBenchReport struct {
	Seed      int64         `json:"seed"`
	FactRows  int           `json:"fact_rows"`
	Queries   int           `json:"queries_per_size"`
	Iters     int           `json:"iters"`
	PoolJoins int           `json:"pool_joins"`
	Cells     []DPBenchCell `json:"cells"`

	JoinCacheHits   int64 `json:"join_cache_hits"`
	JoinCacheMisses int64 `json:"join_cache_misses"`
}

// dpSplit maps a total predicate count onto (joins, filters) within the
// snowflake schema's 7 join edges.
func dpSplit(n int) (joins, filters int) {
	joins = n - 3
	if joins > 7 {
		joins = 7
	}
	return joins, n - joins
}

// DPBench measures the getSelectivity hot path. Both variants run the same
// queries against the same pool; the cross-query histogram-join cache is
// reset before each variant so ordering cannot bias either side, and the
// baseline disables every hot-path layer via Estimator.NoFastPath. The
// estimates themselves are bit-identical across variants (enforced by
// TestCacheEquivalenceHotPath in internal/core); only the time differs.
func (e *Env) DPBench(cfg DPBenchConfig) DPBenchReport {
	cfg = cfg.withDefaults()
	report := DPBenchReport{
		Seed:      e.Opts.Seed,
		FactRows:  e.Opts.FactRows,
		Queries:   cfg.Queries,
		Iters:     cfg.Iters,
		PoolJoins: cfg.PoolJoins,
	}

	models := []core.ErrorModel{core.NInd{}, core.Diff{}}
	for _, n := range cfg.Sizes {
		joins, filters := dpSplit(n)
		g := workload.NewGenerator(e.DB, workload.Config{
			Seed:              e.Opts.Seed + int64(7000*n),
			NumQueries:        cfg.Queries,
			Joins:             joins,
			Filters:           filters,
			TargetSelectivity: e.Opts.FilterSelectivity,
		})
		queries, err := g.Generate()
		if err != nil {
			panic(fmt.Sprintf("bench: dp workload n=%d: %v", n, err))
		}
		pool := sit.BuildWorkloadPoolParallel(e.DB.Cat, queries, cfg.PoolJoins,
			runtime.GOMAXPROCS(0), func(b *sit.Builder) { b.Buckets = e.Opts.Buckets })

		for _, model := range models {
			cell := DPBenchCell{N: n, Joins: joins, Filters: filters, Model: model.Name()}

			variant := func(noFastPath bool) (nsPerOp float64, matchCalls int64) {
				core.ResetHistJoinCache()
				pool.ResetMatchCalls()
				est := core.NewEstimator(e.DB.Cat, pool, model)
				est.NoFastPath = noFastPath
				ops := 0
				start := time.Now()
				for it := 0; it < cfg.Iters; it++ {
					for _, q := range queries {
						r := est.NewRun(q)
						r.GetSelectivity(q.All())
						r.Release()
						ops++
					}
				}
				return float64(time.Since(start).Nanoseconds()) / float64(ops),
					int64(pool.MatchCalls())
			}
			cell.BaselineNsPerOp, cell.BaselineMatchCalls = variant(true)
			cell.OptimizedNsPerOp, cell.OptimizedMatchCalls = variant(false)
			cell.Speedup = cell.BaselineNsPerOp / cell.OptimizedNsPerOp
			cell.CachedNsPerOp, cell.CachedAllocsPerOp, cell.CachedBytesPerOp =
				cachedVariant(e, pool, model, queries, cfg)
			report.Cells = append(report.Cells, cell)
		}
	}
	st := core.HistJoinCacheStats()
	report.JoinCacheHits, report.JoinCacheMisses = st.Hits, st.Misses
	return report
}

// cachedVariant measures the steady-state cached estimate path: a fresh
// cross-query selectivity cache is attached, warmed with two full passes
// (computing, publishing, and settling arena/pool sizes), then the timed
// passes replay the same queries end-to-end — NewRun, GetSelectivity,
// EstimateCardinality, Release. Heap traffic is taken from ReadMemStats
// deltas (Mallocs / TotalAlloc) with the collector paused for the timed
// window only, so a GC cycle can neither smear the timing nor hide an
// allocation; the iteration count is floored at 200 ops to keep the per-op
// division out of measurement noise.
func cachedVariant(e *Env, pool *sit.Pool, model core.ErrorModel,
	queries []*engine.Query, cfg DPBenchConfig) (nsPerOp, allocsPerOp, bytesPerOp float64) {
	core.ResetHistJoinCache()
	est := core.NewEstimator(e.DB.Cat, pool, model)
	est.Cache = core.NewSelCache(1 << 16)

	onePass := func() {
		for _, q := range queries {
			r := est.NewRun(q)
			r.GetSelectivity(q.All())
			r.EstimateCardinality(q.All())
			r.Release()
		}
	}
	onePass()
	onePass()

	passes := cfg.Iters
	for passes*len(queries) < 200 {
		passes++
	}
	ops := passes * len(queries)

	// Best of three attempts. ReadMemStats deltas count the whole process,
	// so a single stray runtime-internal allocation landing inside the
	// window would smear a false fraction over every op; if any attempt
	// observes zero allocations, the measured path itself allocates
	// nothing. Time takes the minimum for the same reason.
	prevGC := debug.SetGCPercent(-1)
	for attempt := 0; attempt < 3; attempt++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for p := 0; p < passes; p++ {
			onePass()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)

		ns := float64(elapsed.Nanoseconds()) / float64(ops)
		allocs := float64(after.Mallocs-before.Mallocs) / float64(ops)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
		if attempt == 0 || allocs < allocsPerOp || (allocs == allocsPerOp && ns < nsPerOp) {
			nsPerOp, allocsPerOp, bytesPerOp = ns, allocs, bytes
		}
	}
	debug.SetGCPercent(prevGC)
	return nsPerOp, allocsPerOp, bytesPerOp
}

// WriteDPJSON writes the report inside the shared bench envelope.
func WriteDPJSON(w io.Writer, r DPBenchReport) error {
	return WriteReport(w, "dp", r.Seed, r)
}

// RenderDP prints the report as a table.
func RenderDP(w io.Writer, r DPBenchReport) {
	fmt.Fprintf(w, "getSelectivity hot path — %d queries/size × %d iters, pool J%d (seed %d)\n\n",
		r.Queries, r.Iters, r.PoolJoins, r.Seed)
	fmt.Fprintf(w, "%4s %6s %14s %14s %9s %12s %12s %12s %10s %10s\n",
		"n", "model", "baseline", "optimized", "speedup",
		"match(base)", "match(opt)", "cached", "allocs/op", "B/op")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%4d %6s %14s %14s %8.2fx %12d %12d %12s %10.1f %10.1f\n",
			c.N, c.Model,
			time.Duration(c.BaselineNsPerOp).Round(time.Microsecond),
			time.Duration(c.OptimizedNsPerOp).Round(time.Microsecond),
			c.Speedup, c.BaselineMatchCalls, c.OptimizedMatchCalls,
			time.Duration(c.CachedNsPerOp).Round(time.Microsecond),
			c.CachedAllocsPerOp, c.CachedBytesPerOp)
	}
}
