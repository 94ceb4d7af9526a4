package perf

// Metric is one number the benchmark reports. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds; a
// test keeps the two in step.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is how much worse, as a share of the parent's median, an
	// end-to-end metric may get before a change counts as a regression.
	Bound float64
	// Moves names, for a per-layer metric, the end-to-end metrics and
	// workloads it is expected to move.
	Moves []Move
}

// Move is one (end-to-end metric, workload) pair a layer metric feeds.
type Move struct{ Metric, Workload string }

func moves(workload string, metrics ...string) []Move {
	out := make([]Move, len(metrics))
	for i, m := range metrics {
		out[i] = Move{m, workload}
	}
	return out
}

func join(ms ...[]Move) []Move {
	var out []Move
	for _, m := range ms {
		out = append(out, m...)
	}
	return out
}

// EndToEnd lists what a user of the service sees. Every workload reports
// every one of them. The time bounds are wide because loopback round trips
// on a shared 2-core VM drift by 15-20% over minutes; README.md gives the
// measured spreads.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "full_dp_share", Unit: "share", Better: "higher", Bound: 0.01},
	{Name: "qerror_p50", Unit: "ratio", Better: "lower", Bound: 0.10},
	{Name: "qerror_p90", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

var (
	dpPath        = moves("fresh", "throughput_qps", "latency_p50_ms")
	frontEnd      = moves("repeat", "latency_p50_ms", "throughput_qps")
	cacheUse      = join(moves("repeat", "throughput_qps", "latency_p50_ms"), moves("drift", "throughput_qps", "latency_p50_ms"))
	lifecycleWork = moves("drift", "throughput_qps", "latency_p99_ms")
	tiers         = moves("open-sweep", "full_dp_share", "qerror_p90")
	openTail      = moves("open-sweep", "latency_p99_ms")
)

// PerLayer lists the traced run's breakdown. Durations come from spans the
// benchmark records around calls into each layer; counts come from the
// program's own counters. A metric a workload has no use for reads 0 there.
var PerLayer = []Metric{
	{Name: "loadgen.dispatch_late_ms.p99", Unit: "ms", Better: "lower", Moves: openTail},
	{Name: "loadgen.backlog_ms.p99", Unit: "ms", Better: "lower", Moves: openTail},
	{Name: "http.self_us.mean", Unit: "us", Better: "lower", Moves: frontEnd},
	{Name: "http.self_ms.p99", Unit: "ms", Better: "lower", Moves: join(openTail, moves("repeat", "latency_p99_ms"))},
	{Name: "serve.handler_ms.p99", Unit: "ms", Better: "lower", Moves: join(moves("fresh", "latency_p99_ms"), openTail)},
	{Name: "serve.decode_us.mean", Unit: "us", Better: "lower", Moves: frontEnd},
	{Name: "qtext.parse_us.mean", Unit: "us", Better: "lower", Moves: frontEnd},
	{Name: "serve.encode_us.mean", Unit: "us", Better: "lower", Moves: frontEnd},
	{Name: "serve.queue_wait_ms.mean", Unit: "ms", Better: "lower", Moves: join(moves("fresh", "latency_p50_ms"), moves("open-sweep", "latency_p50_ms"))},
	{Name: "serve.queue_wait_ms.p99", Unit: "ms", Better: "lower", Moves: join(moves("fresh", "latency_p99_ms"), openTail)},
	{Name: "serve.shed_share", Unit: "share", Better: "lower", Moves: tiers},
	{Name: "robust.tier_share.full-dp", Unit: "share", Better: "higher", Moves: tiers},
	{Name: "robust.tier_share.budgeted-dp", Unit: "share", Better: "lower", Moves: tiers},
	{Name: "robust.tier_share.gvm", Unit: "share", Better: "lower", Moves: tiers},
	{Name: "robust.tier_share.no-sit", Unit: "share", Better: "lower", Moves: tiers},
	{Name: "gvm.ms.mean", Unit: "ms", Better: "lower", Moves: openTail},
	{Name: "robust.ladder_ms.mean", Unit: "ms", Better: "lower", Moves: dpPath},
	{Name: "core.search_ms.mean", Unit: "ms", Better: "lower", Moves: dpPath},
	{Name: "core.hist_ms.mean", Unit: "ms", Better: "lower", Moves: dpPath},
	{Name: "core.histjoin_hit_ratio", Unit: "share", Better: "higher", Moves: dpPath},
	{Name: "sit.match_calls_per_req", Unit: "count", Better: "lower", Moves: dpPath},
	{Name: "selcache.hit_ratio", Unit: "share", Better: "higher", Moves: cacheUse},
	{Name: "selcache.evictions_per_kreq", Unit: "count", Better: "lower", Moves: cacheUse},
	{Name: "selcache.us_per_req", Unit: "us", Better: "lower", Moves: cacheUse},
	{Name: "lifecycle.observe_us.mean", Unit: "us", Better: "lower", Moves: lifecycleWork},
	{Name: "lifecycle.settle_ms.mean", Unit: "ms", Better: "lower", Moves: lifecycleWork},
	{Name: "lifecycle.swaps_per_s", Unit: "1/s", Better: "lower", Moves: lifecycleWork},
	{Name: "lifecycle.rebuilds_per_observation", Unit: "count", Better: "lower", Moves: lifecycleWork},
	{Name: "runtime.alloc_kb_per_req", Unit: "KB", Better: "lower", Moves: join(moves("fresh", "throughput_qps"), moves("repeat", "throughput_qps"))},
	{Name: "runtime.gc_cpu_fraction", Unit: "share", Better: "lower", Moves: join(moves("fresh", "throughput_qps"), moves("repeat", "throughput_qps"))},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: join(moves("fresh", "latency_p50_ms"), moves("repeat", "latency_p50_ms"))},
	{Name: "sweep.p99_ms_at_200", Unit: "ms", Better: "lower", Moves: openTail},
	{Name: "sweep.p99_ms_at_400", Unit: "ms", Better: "lower", Moves: openTail},
	{Name: "sweep.full_dp_share_at_400", Unit: "share", Better: "higher", Moves: tiers},
	{Name: "sweep.max_rate_qps", Unit: "1/s", Better: "higher", Moves: openTail},
}
