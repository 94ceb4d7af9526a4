package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"

	"condsel/internal/core"
	"condsel/internal/engine"
	"condsel/internal/faults"
	"condsel/internal/robust"
	"condsel/internal/sit"
	"condsel/internal/workload"
)

// RobustBenchConfig configures the degradation-ladder benchmark: the un-armed
// robust path is timed against the plain estimator (the ladder's contract is
// bit-identical answers at negligible overhead), and optionally each fault
// point is armed in turn to record which tiers the ladder lands on.
type RobustBenchConfig struct {
	Sizes     []int // total predicate counts (default 6,8,10)
	Queries   int   // queries measured per size (default 4)
	PoolJoins int   // SIT pool J_i to estimate against (default 2)
	Faults    bool  // additionally run the armed fault-schedule section
}

func (c RobustBenchConfig) withDefaults() RobustBenchConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{6, 8, 10}
	}
	if c.Queries == 0 {
		c.Queries = 4
	}
	if c.PoolJoins == 0 {
		c.PoolJoins = 2
	}
	return c
}

// RobustBenchCell is one query-size measurement of the un-armed robust path
// against the plain estimator over identical queries and pool.
type RobustBenchCell struct {
	N       int `json:"n_preds"`
	Joins   int `json:"joins"`
	Filters int `json:"filters"`

	// Bare is the plain estimator, managed the ladder.
	Overhead
}

// RobustFaultCell records, for one armed fault schedule, which ladder tiers
// answered across the workload.
type RobustFaultCell struct {
	Fault string `json:"fault"`
	// TierCounts maps tier name ("full-dp", ...) to how many queries that
	// tier answered.
	TierCounts map[string]int `json:"tier_counts"`
	// Degraded is how many queries any tier below full-dp answered.
	Degraded int `json:"degraded"`
}

// RobustBenchReport is the machine-readable BENCH_robust.json artifact.
type RobustBenchReport struct {
	Seed      int64 `json:"seed"`
	FactRows  int   `json:"fact_rows"`
	Queries   int   `json:"queries_per_size"`
	PoolJoins int   `json:"pool_joins"`

	Cells []RobustBenchCell `json:"cells"`
	// MaxOverheadPct is the worst un-armed overhead across cells.
	MaxOverheadPct float64 `json:"max_overhead_pct"`

	Faulted []RobustFaultCell `json:"faulted,omitempty"`
}

// RobustBench measures the degradation ladder. The un-armed section runs the
// identical queries through the plain DP and through the ladder (which must
// take TierFullDP everywhere) and reports the relative overhead; any answer
// mismatch or degraded tier is a benchmark failure, because un-armed
// bit-identity is the ladder's contract, enforced here as well as in tests.
// With cfg.Faults, each injection point is then armed in turn over a fresh
// pool and the resulting tier distribution recorded.
func (e *Env) RobustBench(cfg RobustBenchConfig) RobustBenchReport {
	cfg = cfg.withDefaults()
	report := RobustBenchReport{
		Seed:      e.Opts.Seed,
		FactRows:  e.Opts.FactRows,
		Queries:   cfg.Queries,
		PoolJoins: cfg.PoolJoins,
	}

	var lastQueries []*engine.Query
	for _, n := range cfg.Sizes {
		joins, filters := dpSplit(n)
		g := workload.NewGenerator(e.DB, workload.Config{
			Seed:              e.Opts.Seed + int64(9000*n),
			NumQueries:        cfg.Queries,
			Joins:             joins,
			Filters:           filters,
			TargetSelectivity: e.Opts.FilterSelectivity,
		})
		queries, err := g.Generate()
		if err != nil {
			panic(fmt.Sprintf("bench: robust workload n=%d: %v", n, err))
		}
		lastQueries = queries
		pool := sit.BuildWorkloadPoolParallel(e.DB.Cat, queries, cfg.PoolJoins,
			runtime.GOMAXPROCS(0), func(b *sit.Builder) { b.Buckets = e.Opts.Buckets })

		est := core.NewEstimator(e.DB.Cat, pool, core.Diff{})
		lad := robust.New(est, robust.Config{})
		plain := func(i int) float64 {
			r := est.NewRun(queries[i])
			sel := r.GetSelectivity(queries[i].All()).Sel
			r.Release()
			return sel
		}
		ladder := func(i int) float64 {
			sel, prov := lad.Selectivity(nil, queries[i], queries[i].All())
			if prov.Tier != robust.TierFullDP {
				panic(fmt.Sprintf("bench: un-armed ladder degraded (n=%d): tier %v, reason %q",
					n, prov.Tier, prov.FallbackReason))
			}
			return sel
		}
		ov, err := measureOverhead(len(queries), plain, ladder)
		if err != nil {
			panic(fmt.Sprintf("bench: un-armed ladder diverged (n=%d): %v", n, err))
		}
		cell := RobustBenchCell{N: n, Joins: joins, Filters: filters, Overhead: ov}
		report.MaxOverheadPct = math.Max(report.MaxOverheadPct, ov.OverheadPct)
		report.Cells = append(report.Cells, cell)
	}

	if cfg.Faults {
		report.Faulted = e.robustFaultSection(cfg, lastQueries)
	}
	return report
}

// robustFaultSection arms each injection point in turn over a fresh pool
// (fault-driven quarantine mutates pools) and tallies the tier distribution.
// Schedules are deterministic, so the distribution is reproducible per seed.
func (e *Env) robustFaultSection(cfg RobustBenchConfig, queries []*engine.Query) []RobustFaultCell {
	cases := []struct {
		name  string
		sched func() *faults.Schedule
	}{
		{"panic-in-factor", func() *faults.Schedule {
			return faults.NewSchedule(e.Opts.Seed).Set(faults.PanicInFactor, faults.Rule{})
		}},
		{"nan-selectivity", func() *faults.Schedule {
			return faults.NewSchedule(e.Opts.Seed).Set(faults.NaNSelectivity, faults.Rule{})
		}},
		{"corrupt-bucket", func() *faults.Schedule {
			return faults.NewSchedule(e.Opts.Seed).Set(faults.CorruptBucket, faults.Rule{Limit: 4})
		}},
		{"cache-evict-storm", func() *faults.Schedule {
			return faults.NewSchedule(e.Opts.Seed).Set(faults.CacheEvictStorm, faults.Rule{Every: 2})
		}},
	}
	out := make([]RobustFaultCell, 0, len(cases))
	for _, c := range cases {
		pool := sit.BuildWorkloadPoolParallel(e.DB.Cat, queries, cfg.PoolJoins,
			runtime.GOMAXPROCS(0), func(b *sit.Builder) { b.Buckets = e.Opts.Buckets })
		lad := robust.New(core.NewEstimator(e.DB.Cat, pool, core.Diff{}), robust.Config{})
		cell := RobustFaultCell{Fault: c.name, TierCounts: make(map[string]int)}
		faults.Arm(c.sched())
		for _, q := range queries {
			_, prov := lad.Selectivity(nil, q, q.All())
			cell.TierCounts[prov.Tier.String()]++
			if prov.Tier != robust.TierFullDP {
				cell.Degraded++
			}
		}
		faults.Disarm()
		out = append(out, cell)
	}
	return out
}

// WriteRobustJSON writes the report inside the shared bench envelope.
func WriteRobustJSON(w io.Writer, r RobustBenchReport) error {
	return WriteReport(w, "robust", r.Seed, r)
}

// RenderRobust prints one overhead line per size, then the fault section.
func RenderRobust(w io.Writer, r RobustBenchReport) {
	fmt.Fprintf(w, "degradation ladder — %d queries/size, pool J%d (seed %d); bare = plain estimator, managed = ladder\n\n",
		r.Queries, r.PoolJoins, r.Seed)
	for _, c := range r.Cells {
		fmt.Fprintf(w, "n=%-3d joins %d filters %d  %v\n", c.N, c.Joins, c.Filters, c.Overhead)
	}
	fmt.Fprintf(w, "\nmax un-armed overhead: %.2f%%\n", r.MaxOverheadPct)
	for _, fc := range r.Faulted {
		tiers := make([]string, 0, len(fc.TierCounts))
		for tier := range fc.TierCounts {
			tiers = append(tiers, tier)
		}
		sort.Strings(tiers)
		fmt.Fprintf(w, "\n%-18s degraded %d/%d:", fc.Fault, fc.Degraded, r.Queries)
		for _, tier := range tiers {
			fmt.Fprintf(w, "  %s=%d", tier, fc.TierCounts[tier])
		}
	}
	if len(r.Faulted) > 0 {
		fmt.Fprintln(w)
	}
}
