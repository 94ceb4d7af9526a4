// Command sitbench regenerates the figures of Bruno & Chaudhuri (SIGMOD
// 2004) over a freshly generated snowflake database: the GVM-vs-GS-nInd
// accuracy scatter (Figure 5), view-matching call counts (Figure 6),
// average absolute cardinality error per SIT pool and technique
// (Figure 7), the estimation-time breakdown (Figure 8), the Lemma 1
// decomposition-count table, the ablation tables A1–A7, the
// plan-quality study P1, the estimation-service throughput benchmark
// ("est": shared estimator under concurrent load, with or without the
// cross-query selectivity cache), the getSelectivity hot-path benchmark
// ("dp": NoFastPath baseline vs the optimized DP across query sizes and
// error models), the large-scale soak harness ("soak": a grown
// 100+-table schema driven through repeated drift → rebuild → hot-swap →
// fault → recovery arcs under phased adversarial workloads), the
// service-layer load arc ("serve": a real sitserve-shaped HTTP server driven
// through open → overload → drain phases, recording per-phase status/tier/
// shed distributions and the un-armed service overhead), and the
// distributed-tier arc ("cluster": warm → partition → heal → fence over an
// in-process cluster, plus the un-armed overhead of a cluster node).
//
// Usage:
//
//	sitbench [-fig all|5|6|7|8|lemma1|ablations|a1..a7|p1|est|dp|robust|lifecycle|soak|serve|cluster]
//	         [-fact N] [-queries N] [-joins 3,5,7] [-maxpool N]
//	         [-subsets N] [-seed N] [-filtersel F] [-csv FILE]
//	         [-workers N] [-cache] [-cachecap N] [-rounds N] [-json FILE]
//	         [-sizes 6,8,10,12] [-iters N] [-gate FILE] [-faults=BOOL]
//	         [-cycles N] [-tables N] [-duration D] [-phases flash,churn,...]
//	         [-slots N] [-phase D] [-nodes N]
//
// With -csv the selected figure's data is additionally written as CSV
// (single figures only, not the "all"/"ablations" bundles). -fig est
// always measures the sequential cache-off baseline alongside the
// requested -workers/-cache configuration; -fig dp always measures the
// NoFastPath baseline alongside the optimized estimator over -sizes
// predicate counts, -iters times per variant, and -gate checks its cached
// path against a committed BENCH_dp.json. -fig robust times the un-armed
// degradation ladder against the plain estimator (bit-identical answers
// are asserted, not assumed) and, with -faults (the default), arms each
// fault-injection point in turn and records which ladder tiers answer.
// -fig lifecycle measures the statistics lifecycle manager: un-armed
// hot-path overhead of the manager-fronted estimator (contract: ≤ 1%),
// rebuild + hot-swap throughput, and crash-safe snapshot write/recover
// latency. -fig soak runs the internal/soak harness: -tables sizes the
// grown schema, -cycles runs that many compressed arcs (deterministic event
// log, the CI mode), -duration keeps cycling until the clock expires, and
// -phases selects a subset of the arc. -fig serve drives the estimation
// service itself: -slots sizes admission, -phase the per-phase wall clock,
// and the report asserts-by-numbers the overload contract (zero 5xx,
// provenance on every answer, sheds absorbed by cheaper tiers). -fig
// cluster runs the partition arc on -nodes in-process nodes. The robust,
// lifecycle, serve and cluster overheads come from one paired A/B
// comparison with a fixed pair count (bench.OverheadPairs), so no flag
// sets their rounds. All seven write a -json artifact in the shared
// condsel-bench/v1 envelope (defaults: BENCH_estimation.json for est,
// BENCH_dp.json for dp, BENCH_robust.json for robust, BENCH_lifecycle.json
// for lifecycle, BENCH_soak.json for soak, BENCH_serve.json for serve,
// BENCH_cluster.json for cluster).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"condsel/internal/bench"
	"condsel/internal/soak"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: all, 5, 6, 7, 8, lemma1, ablations, a1..a7, p1, est, dp, robust, lifecycle, soak, serve, cluster")
		fact      = flag.Int("fact", 20000, "fact table rows")
		queries   = flag.Int("queries", 25, "queries per workload")
		joins     = flag.String("joins", "3,5,7", "workload join counts (comma separated)")
		maxPool   = flag.Int("maxpool", 7, "largest SIT pool J_i")
		subsets   = flag.Int("subsets", 200, "max sub-queries sampled per query")
		seed      = flag.Int64("seed", 42, "random seed")
		filterSel = flag.Float64("filtersel", 0, "target filter selectivity (default 0.05; the paper also reports ≈0.5)")
		csvPath   = flag.String("csv", "", "write the figure's data as CSV to this file")
		workers   = flag.Int("workers", 1, "estimation goroutines for -fig est")
		useCache  = flag.Bool("cache", false, "attach the cross-query selectivity cache for -fig est")
		cacheCap  = flag.Int("cachecap", 0, "cache capacity in entries for -fig est (0 = default)")
		rounds    = flag.Int("rounds", 3, "workload passes for -fig est")
		jsonPath  = flag.String("json", "", "JSON artifact path for -fig est, dp, robust, lifecycle, soak, serve or cluster (default BENCH_<figure>.json; est writes BENCH_estimation.json)")
		sizes     = flag.String("sizes", "6,8,10,12", "query predicate counts for -fig dp")
		gatePath  = flag.String("gate", "", "for -fig dp: committed BENCH_dp.json to gate against (0 allocs/op on the cached path)")
		iters     = flag.Int("iters", 0, "timed passes per variant for -fig dp (0 = default)")
		withFault = flag.Bool("faults", true, "for -fig robust: also arm each fault point and record the ladder's tier distribution")
		cycles    = flag.Int("cycles", 0, "full stale→rebuilt pool cycles for -fig lifecycle, or arc cycles for -fig soak (0 = default)")
		tables    = flag.Int("tables", 0, "grown-schema table count for -fig soak (0 = default 104)")
		duration  = flag.Duration("duration", 0, "for -fig soak: keep cycling until this wall-clock budget expires (0 = -cycles mode)")
		phases    = flag.String("phases", "", "for -fig soak: comma-separated phase subset (default: the full arc)")
		slots     = flag.Int("slots", 0, "admission slots for -fig serve (0 = default 4)")
		nodes     = flag.Int("nodes", 0, "cluster size for -fig cluster (0 = default 3)")
		phaseDur  = flag.Duration("phase", 0, "per-phase wall clock for -fig serve (0 = default 3s)")
	)
	flag.Parse()

	js, err := parseInts(*joins)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sitbench: bad -joins: %v\n", err)
		os.Exit(2)
	}

	opts := bench.Options{
		Seed:               *seed,
		FactRows:           *fact,
		QueriesPerWorkload: *queries,
		Joins:              js,
		MaxPoolJoins:       *maxPool,
		SubsetCap:          *subsets,
		FilterSelectivity:  *filterSel,
	}

	estCfg := bench.EstBenchConfig{
		Workers:       *workers,
		Cache:         *useCache,
		CacheCapacity: *cacheCap,
		Rounds:        *rounds,
	}

	ns, err := parseInts(*sizes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sitbench: bad -sizes: %v\n", err)
		os.Exit(2)
	}
	dpCfg := bench.DPBenchConfig{Sizes: ns, Iters: *iters}
	robustCfg := bench.RobustBenchConfig{Faults: *withFault}
	lifecycleCfg := bench.LifecycleBenchConfig{Cycles: *cycles}
	serveCfg := bench.ServeBenchConfig{Slots: *slots, Phase: *phaseDur}
	clusterCfg := bench.ClusterBenchConfig{Nodes: *nodes}
	soakCfg := soak.Config{
		Seed:     *seed,
		Tables:   *tables,
		Cycles:   *cycles,
		Duration: *duration,
		Phases:   parsePhases(*phases),
		Progress: os.Stdout,
	}

	start := time.Now()
	if err := run(*fig, opts, *csvPath, estCfg, dpCfg, robustCfg, lifecycleCfg, soakCfg, serveCfg, clusterCfg, *jsonPath, *gatePath); err != nil {
		fmt.Fprintf(os.Stderr, "sitbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("\ncompleted in %s\n", time.Since(start).Round(time.Millisecond))
}

func run(fig string, opts bench.Options, csvPath string, estCfg bench.EstBenchConfig, dpCfg bench.DPBenchConfig, robustCfg bench.RobustBenchConfig, lifecycleCfg bench.LifecycleBenchConfig, soakCfg soak.Config, serveCfg bench.ServeBenchConfig, clusterCfg bench.ClusterBenchConfig, jsonPath, gatePath string) error {
	withJSON := func(def string, write func(*os.File) error) error {
		path := jsonPath
		if path == "" {
			path = def
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := write(f); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", path)
		return nil
	}
	withCSV := func(write func(*os.File) error) error {
		if csvPath == "" {
			return nil
		}
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		return write(f)
	}

	switch fig {
	case "all":
		e := bench.NewEnv(opts)
		e.RunAll(os.Stdout)
	case "5":
		e := bench.NewEnv(opts)
		points := e.Fig5()
		bench.RenderFig5(os.Stdout, points)
		return withCSV(func(f *os.File) error { return bench.WriteFig5CSV(f, points) })
	case "6":
		e := bench.NewEnv(opts)
		rows := e.Fig6()
		bench.RenderFig6(os.Stdout, rows)
		return withCSV(func(f *os.File) error { return bench.WriteFig6CSV(f, rows) })
	case "7":
		e := bench.NewEnv(opts)
		cells := e.Fig7()
		bench.RenderFig7(os.Stdout, cells)
		return withCSV(func(f *os.File) error { return bench.WriteFig7CSV(f, cells) })
	case "8":
		e := bench.NewEnv(opts)
		cells := e.Fig8()
		bench.RenderFig8(os.Stdout, cells)
		return withCSV(func(f *os.File) error { return bench.WriteFig8CSV(f, cells) })
	case "lemma1":
		rows := bench.Lemma1(12)
		bench.RenderLemma1(os.Stdout, rows)
		return withCSV(func(f *os.File) error { return bench.WriteLemma1CSV(f, rows) })
	case "ablations":
		e := bench.NewEnv(opts)
		e.RunAblations(os.Stdout)
	case "a1", "a2", "a3", "a4", "a5", "a6", "a7":
		e := bench.NewEnv(opts)
		var title string
		var cells []bench.AblationCell
		switch fig {
		case "a1":
			title, cells = "Table A1 — histogram class (GS-Diff, pool J2)", e.AblationHistogramKind()
		case "a2":
			title, cells = "Table A2 — histogram bucket budget (GS-Diff, pool J2)", e.AblationBuckets(nil)
		case "a3":
			title, cells = "Table A3 — SITs vs join synopses", e.AblationSynopses(nil)
		case "a4":
			title, cells = "Table A4 — full DP vs §4.2 memo coupling", e.AblationMemoCoupling()
		case "a5":
			title, cells = "Table A5 — diff_H source", e.AblationDiffSource()
		case "a6":
			title, cells = "Table A6 — 1-D SITs vs 2-D base histograms + derivation", e.Ablation2D()
		case "a7":
			title, cells = "Table A7 — SITs vs LEO-style feedback", e.AblationFeedback()
		}
		bench.RenderAblation(os.Stdout, title, cells)
		return withCSV(func(f *os.File) error { return bench.WriteAblationCSV(f, cells) })
	case "p1":
		e := bench.NewEnv(opts)
		cells := e.PlanQuality()
		bench.RenderPlanQuality(os.Stdout, cells)
		return withCSV(func(f *os.File) error { return bench.WritePlanQualityCSV(f, cells) })
	case "est":
		e := bench.NewEnv(opts)
		report := e.EstimationReport(estCfg)
		bench.RenderEstimation(os.Stdout, report)
		return withJSON("BENCH_estimation.json", func(f *os.File) error {
			return bench.WriteEstimationJSON(f, report)
		})
	case "dp":
		e := bench.NewEnv(opts)
		report := e.DPBench(dpCfg)
		bench.RenderDP(os.Stdout, report)
		if err := withJSON("BENCH_dp.json", func(f *os.File) error {
			return bench.WriteDPJSON(f, report)
		}); err != nil {
			return err
		}
		if gatePath != "" {
			if err := bench.GateDP(report, gatePath); err != nil {
				return err
			}
			fmt.Printf("gate: ok (0 allocs/op on cached path; artifact %s)\n", gatePath)
		}
		return nil
	case "robust":
		e := bench.NewEnv(opts)
		report := e.RobustBench(robustCfg)
		bench.RenderRobust(os.Stdout, report)
		return withJSON("BENCH_robust.json", func(f *os.File) error {
			return bench.WriteRobustJSON(f, report)
		})
	case "lifecycle":
		e := bench.NewEnv(opts)
		report := e.LifecycleBench(lifecycleCfg)
		bench.RenderLifecycle(os.Stdout, report)
		return withJSON("BENCH_lifecycle.json", func(f *os.File) error {
			return bench.WriteLifecycleJSON(f, report)
		})
	case "serve":
		e := bench.NewEnv(opts)
		report := e.ServeBench(serveCfg)
		bench.RenderServe(os.Stdout, report)
		return withJSON("BENCH_serve.json", func(f *os.File) error {
			return bench.WriteServeJSON(f, report)
		})
	case "cluster":
		e := bench.NewEnv(opts)
		report := e.ClusterBench(clusterCfg)
		bench.RenderCluster(os.Stdout, report)
		return withJSON("BENCH_cluster.json", func(f *os.File) error {
			return bench.WriteClusterJSON(f, report)
		})
	case "soak":
		h, err := soak.New(soakCfg)
		if err != nil {
			return err
		}
		report, err := h.Run(context.Background())
		if err != nil {
			return err
		}
		renderSoak(os.Stdout, report)
		return withJSON("BENCH_soak.json", func(f *os.File) error {
			return bench.WriteReport(f, "soak", report.Seed, report)
		})
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

// parsePhases splits a comma-separated phase list; empty means the full arc
// (soak applies its own default). Phase-name validation is soak.New's job.
func parsePhases(csv string) []string {
	var out []string
	for _, p := range strings.Split(csv, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// renderSoak prints the human-readable soak summary: run shape, aggregate
// quality and lifecycle counters, then the per-phase time series.
func renderSoak(w *os.File, r *soak.Report) {
	fmt.Fprintf(w, "\nSoak — %d tables / %d clusters / %d shards, %d fact rows, seed %d\n",
		r.Tables, r.Clusters, r.Shards, r.FactRows, r.Seed)
	fmt.Fprintf(w, "cycles=%d queries=%d (%.0f/s over %.1fs)\n",
		r.Cycles, r.TotalQueries, r.QueriesPerSec, r.DurationSeconds)

	tiers := make([]string, 0, len(r.TierTotals))
	for t := range r.TierTotals {
		tiers = append(tiers, t)
	}
	sort.Strings(tiers)
	fmt.Fprintf(w, "tiers:")
	for _, t := range tiers {
		fmt.Fprintf(w, " %s=%d", t, r.TierTotals[t])
	}
	fmt.Fprintf(w, "\nfault-free no-sit share: %.2f%% (%d of %d)\n",
		r.FaultFreeNoSITPct, r.FaultFreeNoSIT, r.FaultFreeQueries)
	fmt.Fprintf(w, "lifecycle: rebuilds=%d failures=%d swaps=%d parked=%d\n",
		r.Rebuilds, r.Failures, r.Swaps, r.Parked)
	fmt.Fprintf(w, "cache: hits=%d misses=%d evictions=%d\n",
		r.CacheHits, r.CacheMisses, r.CacheEvictions)
	fmt.Fprintf(w, "recovery: snapshots=%d torn-rejected=%d bit-identical=%v\n",
		r.SnapshotRecoveries, r.CorruptSnapshots, r.BitIdentical)

	fmt.Fprintf(w, "\n%-6s %-12s %8s %9s %9s %9s %9s\n",
		"cycle", "phase", "queries", "q/s", "p99 ms", "degraded", "served")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%-6d %-12s %8d %9.0f %9.3f %9d %9d\n",
			p.Cycle, p.Phase, p.Queries, p.QueriesPerSec, p.P99Ms, p.Degraded, p.CacheServed)
	}
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no values in %q", csv)
	}
	return out, nil
}
