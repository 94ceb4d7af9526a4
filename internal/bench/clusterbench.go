package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"condsel/internal/cluster"
	"condsel/internal/core"
	"condsel/internal/faults"
	"condsel/internal/robust"
)

// ClusterBenchConfig configures the distributed statistics tier benchmark:
// an in-process N-node cluster is driven through the full partition arc —
// warm replication, a hard partition with estimation continuing, heal and
// re-replication across an epoch bump, a stale-epoch replay at the fence —
// and finally the un-armed overhead of routing estimates through a node
// instead of a bare ladder.
type ClusterBenchConfig struct {
	Nodes         int // cluster size (default 3)
	PoolJoins     int // SIT pool J_i (default 2)
	WorkloadJoins int // workload join count (default 3)
}

func (c ClusterBenchConfig) withDefaults() ClusterBenchConfig {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.PoolJoins == 0 {
		c.PoolJoins = 2
	}
	if c.WorkloadJoins == 0 {
		c.WorkloadJoins = 3
	}
	return c
}

// ClusterBenchReport is the BENCH_cluster.json payload. CI gates on:
// partition_errors == 0, provenance_missing == 0, bit_identical_warm and
// bit_identical_healed true, stale_replay_rejected true, and
// overhead_pct <= 1.
type ClusterBenchReport struct {
	Seed      int64 `json:"seed"`
	FactRows  int   `json:"fact_rows"`
	Nodes     int   `json:"nodes"`
	PoolJoins int   `json:"pool_joins"`
	Queries   int   `json:"queries"`
	PoolSITs  int   `json:"pool_sits"`

	// Warm phase: every node replicated every peer.
	BitIdenticalWarm bool `json:"bit_identical_warm"`

	// Partition phase: one peer cut off from the probe node.
	PartitionQueries       int `json:"partition_queries"`
	PartitionErrors        int `json:"partition_errors"`
	DegradedAnswers        int `json:"degraded_answers"`
	DegradedWithProvenance int `json:"degraded_with_provenance"`
	ProvenanceMissing      int `json:"provenance_missing"`

	// Heal phase: partition removed, peer rebuilt (epoch bump),
	// re-replicated.
	RebuiltEpoch       uint64 `json:"rebuilt_epoch"`
	BitIdenticalHealed bool   `json:"bit_identical_healed"`

	// Fence phase: the pre-rebuild frame replayed at the probe node.
	StaleReplayRejected bool  `json:"stale_replay_rejected"`
	FenceRejections     int64 `json:"fence_rejections"`
	GenerationMoved     bool  `json:"generation_moved_on_replay"`

	// Un-armed overhead: warm-node Estimate (managed) vs the bare robust
	// ladder over the identical full pool.
	Overhead
}

// ClusterBench provisions an in-process cluster over the environment's pool
// and drives the partition→heal→re-replicate→fence arc.
func (e *Env) ClusterBench(cfg ClusterBenchConfig) ClusterBenchReport {
	cfg = cfg.withDefaults()
	queries := e.Workload(cfg.WorkloadJoins)
	pool := e.Pool(cfg.WorkloadJoins, cfg.PoolJoins)
	ctx := context.Background()

	report := ClusterBenchReport{
		Seed:      e.Opts.Seed,
		FactRows:  e.Opts.FactRows,
		Nodes:     cfg.Nodes,
		PoolJoins: cfg.PoolJoins,
		Queries:   len(queries),
		PoolSITs:  len(pool.SITs()),
	}

	h, err := cluster.NewHarness(e.DB.Cat, pool, cfg.Nodes, cluster.Config{
		FetchDeadline: benchFetchDeadline,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: cluster harness: %v", err))
	}

	// Reference: a single node owning the full pool, same model, bare ladder.
	ladder := robust.New(core.NewEstimator(e.DB.Cat, pool, core.Diff{}), robust.Config{})
	want := make([]float64, len(queries))
	for i, q := range queries {
		want[i], _ = ladder.Cardinality(ctx, q)
	}

	// --- Warm: full replication must be bit-identical to single-node ----
	if err := h.WarmAll(ctx); err != nil {
		panic(fmt.Sprintf("bench: cluster warm-up: %v", err))
	}
	probe, lost := h.Node(0), h.Nodes[h.IDs[1]]
	report.BitIdenticalWarm = true
	for i, q := range queries {
		if got, _ := probe.Estimate(ctx, q, robust.Config{}); got != want[i] {
			report.BitIdenticalWarm = false
		}
	}

	// --- Partition: estimation must continue, degraded with provenance --
	// A fresh probe node (same shard, empty replica set) boots the way
	// sitnode does, warming up during the outage: every reachable shard is
	// admitted and the lost peer's is not. Its warm-up error is that
	// degraded start, which the provenance checks below judge.
	cold, err := cluster.NewNode(probeConfig(h), e.DB.Cat, h.Ring.Shard(pool, h.IDs[0]), h.Transport)
	if err != nil {
		panic(fmt.Sprintf("bench: cold probe node: %v", err))
	}
	h.Transport.Register(cold)
	h.Transport.Partition(cold.ID(), lost.ID())
	_ = cold.WarmUp(ctx)
	for i, q := range queries {
		needsLost := false
		for _, owner := range h.Ring.QueryOwners(e.DB.Cat, q) {
			if owner == lost.ID() {
				needsLost = true
			}
		}
		card, prov := cold.Estimate(ctx, q, robust.Config{})
		report.PartitionQueries++
		if math.IsNaN(card) || math.IsInf(card, 0) || card < 0 {
			report.PartitionErrors++
			continue
		}
		if needsLost {
			report.DegradedAnswers++
			if strings.Contains(prov.FallbackReason, robust.RemoteUnavailablePrefix) &&
				strings.Contains(prov.FallbackReason, string(lost.ID())) {
				report.DegradedWithProvenance++
			} else {
				report.ProvenanceMissing++
			}
		} else if got, _ := cold.Estimate(ctx, q, robust.Config{}); got != want[i] && report.BitIdenticalWarm {
			// Queries untouched by the lost shard stay exact even mid-partition.
			report.PartitionErrors++
		}
	}

	// --- Heal: epoch-bumped rebuild, re-replication, bit-identity back --
	lost.RebuildLocal(h.Ring.Shard(pool, lost.ID()))
	report.RebuiltEpoch = lost.Stamp().Epoch.Count()
	h.Transport.HealAll()
	for _, id := range h.IDs {
		if id == cold.ID() {
			continue
		}
		if err := cold.Replicate(ctx, id); err != nil {
			panic(fmt.Sprintf("bench: re-replication from %s after heal: %v", id, err))
		}
	}
	report.BitIdenticalHealed = true
	for i, q := range queries {
		got, prov := cold.Estimate(ctx, q, robust.Config{})
		if got != want[i] || prov.Tier != robust.TierFullDP {
			report.BitIdenticalHealed = false
		}
	}

	// --- Fence: replay the pre-rebuild frame at the probe ---------------
	genBefore := cold.MergedGeneration()
	faults.Arm(faults.NewSchedule(e.Opts.Seed).Set(faults.NetStaleEpoch, faults.Rule{Limit: 1}))
	replayErr := cold.Replicate(ctx, lost.ID())
	faults.Disarm()
	report.StaleReplayRejected = replayErr != nil
	report.FenceRejections = cold.Counters().FenceRejections
	report.GenerationMoved = cold.MergedGeneration() != genBefore
	if report.GenerationMoved {
		report.StaleReplayRejected = false
	}

	// --- Un-armed overhead ----------------------------------------------
	// The warm probe's merged pool carries the same statistics as the full
	// pool, so the delta against the bare ladder is the tier's steady-state
	// cost alone: one atomic load plus the missing-peer check.
	bare := func(i int) float64 {
		card, _ := ladder.Cardinality(ctx, queries[i])
		return card
	}
	node := func(i int) float64 {
		card, _ := cold.Estimate(ctx, queries[i], robust.Config{})
		return card
	}
	report.Overhead, err = measureOverhead(len(queries), bare, node)
	if err != nil {
		panic(fmt.Sprintf("bench: cluster estimate diverged from the bare ladder: %v", err))
	}
	return report
}

// probeConfig builds the config of a restarted instance of the first node:
// same id and membership, fresh epoch and replica set. Registering it
// replaces the original in the transport, which is exactly what a process
// restart does to a cluster.
func probeConfig(h *cluster.Harness) cluster.Config {
	return cluster.Config{
		Self:          h.IDs[0],
		Nodes:         h.IDs,
		FetchDeadline: benchFetchDeadline,
	}
}

// benchFetchDeadline bounds each replication fetch of the arc.
const benchFetchDeadline = 100 * time.Millisecond

// WriteClusterJSON writes the BENCH_cluster.json envelope.
func WriteClusterJSON(w io.Writer, r ClusterBenchReport) error {
	return WriteReport(w, "cluster", r.Seed, r)
}

// RenderCluster prints the human-readable arc summary.
func RenderCluster(w io.Writer, r ClusterBenchReport) {
	fmt.Fprintf(w, "Distributed statistics tier — %d nodes, pool J_%d (%d SITs), %d queries (seed %d)\n\n",
		r.Nodes, r.PoolJoins, r.PoolSITs, r.Queries, r.Seed)
	fmt.Fprintf(w, "warm:      bit-identical to single-node: %v\n", r.BitIdenticalWarm)
	fmt.Fprintf(w, "partition: %d queries, %d errors, %d degraded (%d with provenance, %d missing)\n",
		r.PartitionQueries, r.PartitionErrors, r.DegradedAnswers,
		r.DegradedWithProvenance, r.ProvenanceMissing)
	fmt.Fprintf(w, "heal:      rebuilt epoch %d, bit-identical after re-replication: %v\n",
		r.RebuiltEpoch, r.BitIdenticalHealed)
	fmt.Fprintf(w, "fence:     stale replay rejected: %v (rejections=%d, generation moved: %v)\n",
		r.StaleReplayRejected, r.FenceRejections, r.GenerationMoved)
	fmt.Fprintf(w, "overhead:  %v\n", r.Overhead)
}
