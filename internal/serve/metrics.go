package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"condsel/internal/robust"
)

// latencyBuckets are the upper bounds (seconds) of the request-duration
// histogram — fixed at compile time so observation is a few atomic adds.
var latencyBuckets = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// histogram is a lock-free Prometheus-style cumulative histogram: per-bucket
// counts plus a sum (in nanoseconds, to stay integral) and total count.
type histogram struct {
	buckets [len(latencyBuckets)]atomic.Int64
	sumNs   atomic.Int64
	count   atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	sec := d.Seconds()
	for i, ub := range latencyBuckets {
		if sec <= ub {
			h.buckets[i].Add(1)
		}
	}
	h.sumNs.Add(int64(d))
	h.count.Add(1)
}

// endpoints and statusClasses enumerate the label values minted by the
// handlers; metrics storage is a fixed matrix indexed by them, so the hot
// path never touches a map or a lock.
var endpoints = []string{"estimate", "batch"}

const (
	epEstimate = iota
	epBatch
	numEndpoints
)

var statusCodes = [...]int{200, 400, 503}

const numTiers = int(robust.TierNoSIT) + 1

// metrics is the server-wide counter set backing /metrics. All fields are
// atomics: observation is wait-free, exposition reads a consistent-enough
// snapshot (Prometheus semantics tolerate per-series skew).
type metrics struct {
	requests  [numEndpoints][len(statusCodes) + 1]atomic.Int64 // last column: other
	tiers     [numEndpoints][numTiers]atomic.Int64
	latency   [numEndpoints][numTiers]histogram
	shed      [2]atomic.Int64 // ShedQueueFull, ShedDeadline
	drained   atomic.Int64    // requests refused because the server is draining
	queueWait histogram
}

func endpointIndex(ep string) int {
	if ep == "batch" {
		return epBatch
	}
	return epEstimate
}

func (m *metrics) observeRequest(ep string, code int, tier robust.Tier, d time.Duration) {
	e := endpointIndex(ep)
	ci := len(statusCodes)
	for i, c := range statusCodes {
		if c == code {
			ci = i
			break
		}
	}
	m.requests[e][ci].Add(1)
	if code == 200 {
		t := int(tier)
		if t < 0 || t >= numTiers {
			t = numTiers - 1
		}
		m.tiers[e][t].Add(1)
		m.latency[e][t].observe(d)
	}
}

func (m *metrics) observeShed(cause string) {
	if cause == ShedQueueFull {
		m.shed[0].Add(1)
	} else {
		m.shed[1].Add(1)
	}
}

// writeMetrics renders the full exposition in Prometheus text format 0.0.4.
// Gauges sampled from the wider system (limiter, SLO controller, caches,
// pool, lifecycle) are read through the snapshot accessors those subsystems
// expose, so scraping never contends with the estimation hot path beyond a
// single short lock per subsystem.
func (s *Server) writeMetrics(w io.Writer) {
	m := &s.m

	fmt.Fprintf(w, "# HELP condsel_requests_total Requests by endpoint and status code.\n# TYPE condsel_requests_total counter\n")
	for e, ep := range endpoints {
		for i, c := range statusCodes {
			fmt.Fprintf(w, "condsel_requests_total{endpoint=%q,code=\"%d\"} %d\n", ep, c, m.requests[e][i].Load())
		}
		fmt.Fprintf(w, "condsel_requests_total{endpoint=%q,code=\"other\"} %d\n", ep, m.requests[e][len(statusCodes)].Load())
	}

	fmt.Fprintf(w, "# HELP condsel_responses_tier_total Successful responses by ladder tier that answered.\n# TYPE condsel_responses_tier_total counter\n")
	for e, ep := range endpoints {
		for t := 0; t < numTiers; t++ {
			fmt.Fprintf(w, "condsel_responses_tier_total{endpoint=%q,tier=%q} %d\n", ep, robust.Tier(t).String(), m.tiers[e][t].Load())
		}
	}

	fmt.Fprintf(w, "# HELP condsel_request_duration_seconds Estimation latency by endpoint and answering tier.\n# TYPE condsel_request_duration_seconds histogram\n")
	for e, ep := range endpoints {
		for t := 0; t < numTiers; t++ {
			h := &m.latency[e][t]
			if h.count.Load() == 0 {
				continue
			}
			tier := robust.Tier(t).String()
			for i, ub := range latencyBuckets {
				fmt.Fprintf(w, "condsel_request_duration_seconds_bucket{endpoint=%q,tier=%q,le=%q} %d\n",
					ep, tier, formatFloat(ub), h.buckets[i].Load())
			}
			fmt.Fprintf(w, "condsel_request_duration_seconds_bucket{endpoint=%q,tier=%q,le=\"+Inf\"} %d\n", ep, tier, h.count.Load())
			fmt.Fprintf(w, "condsel_request_duration_seconds_sum{endpoint=%q,tier=%q} %s\n", ep, tier,
				formatFloat(float64(h.sumNs.Load())/1e9))
			fmt.Fprintf(w, "condsel_request_duration_seconds_count{endpoint=%q,tier=%q} %d\n", ep, tier, h.count.Load())
		}
	}

	fmt.Fprintf(w, "# HELP condsel_queue_wait_seconds Time requests spent in the admission queue.\n# TYPE condsel_queue_wait_seconds histogram\n")
	for i, ub := range latencyBuckets {
		fmt.Fprintf(w, "condsel_queue_wait_seconds_bucket{le=%q} %d\n", formatFloat(ub), m.queueWait.buckets[i].Load())
	}
	fmt.Fprintf(w, "condsel_queue_wait_seconds_bucket{le=\"+Inf\"} %d\n", m.queueWait.count.Load())
	fmt.Fprintf(w, "condsel_queue_wait_seconds_sum %s\n", formatFloat(float64(m.queueWait.sumNs.Load())/1e9))
	fmt.Fprintf(w, "condsel_queue_wait_seconds_count %d\n", m.queueWait.count.Load())

	fmt.Fprintf(w, "# HELP condsel_shed_total Admission sheds by cause (shed requests still get an answer from a cheaper tier).\n# TYPE condsel_shed_total counter\n")
	fmt.Fprintf(w, "condsel_shed_total{cause=%q} %d\n", ShedQueueFull, m.shed[0].Load())
	fmt.Fprintf(w, "condsel_shed_total{cause=%q} %d\n", ShedDeadline, m.shed[1].Load())

	fmt.Fprintf(w, "# HELP condsel_drain_refused_total Requests refused with 503 because the server was draining.\n# TYPE condsel_drain_refused_total counter\n")
	fmt.Fprintf(w, "condsel_drain_refused_total %d\n", m.drained.Load())

	fmt.Fprintf(w, "# HELP condsel_queue_depth Requests currently waiting for an admission slot.\n# TYPE condsel_queue_depth gauge\n")
	fmt.Fprintf(w, "condsel_queue_depth %d\n", s.limiter.QueueDepth())
	fmt.Fprintf(w, "# HELP condsel_inflight Admission slots currently held.\n# TYPE condsel_inflight gauge\n")
	fmt.Fprintf(w, "condsel_inflight %d\n", s.limiter.InFlight())
	fmt.Fprintf(w, "# HELP condsel_capacity Admission slot capacity.\n# TYPE condsel_capacity gauge\n")
	fmt.Fprintf(w, "condsel_capacity %d\n", s.limiter.Capacity())

	slo := s.slo.Stats()
	fmt.Fprintf(w, "# HELP condsel_slo_admitted_tier Highest-fidelity ladder tier the SLO controller currently admits (0=full-dp .. 3=no-sit).\n# TYPE condsel_slo_admitted_tier gauge\n")
	fmt.Fprintf(w, "condsel_slo_admitted_tier %d\n", int(slo.AdmittedTier))
	fmt.Fprintf(w, "# HELP condsel_slo_tightenings_total SLO tier tightenings (p99 breached target).\n# TYPE condsel_slo_tightenings_total counter\n")
	fmt.Fprintf(w, "condsel_slo_tightenings_total %d\n", slo.Tightenings)
	fmt.Fprintf(w, "# HELP condsel_slo_reopenings_total SLO tier re-openings (sustained calm).\n# TYPE condsel_slo_reopenings_total counter\n")
	fmt.Fprintf(w, "condsel_slo_reopenings_total %d\n", slo.Reopenings)

	if s.cfg.Cache != nil {
		st := s.cfg.Cache.Stats()
		fmt.Fprintf(w, "# HELP condsel_selcache_hits_total Cross-query selectivity cache hits.\n# TYPE condsel_selcache_hits_total counter\n")
		fmt.Fprintf(w, "condsel_selcache_hits_total %d\n", st.Hits)
		fmt.Fprintf(w, "# HELP condsel_selcache_misses_total Cross-query selectivity cache misses.\n# TYPE condsel_selcache_misses_total counter\n")
		fmt.Fprintf(w, "condsel_selcache_misses_total %d\n", st.Misses)
		fmt.Fprintf(w, "# HELP condsel_selcache_evictions_total Cross-query selectivity cache evictions.\n# TYPE condsel_selcache_evictions_total counter\n")
		fmt.Fprintf(w, "condsel_selcache_evictions_total %d\n", st.Evictions)
		fmt.Fprintf(w, "# HELP condsel_selcache_entries Current selectivity cache entries.\n# TYPE condsel_selcache_entries gauge\n")
		fmt.Fprintf(w, "condsel_selcache_entries %d\n", st.Entries)
		fmt.Fprintf(w, "# HELP condsel_selcache_capacity Selectivity cache capacity.\n# TYPE condsel_selcache_capacity gauge\n")
		fmt.Fprintf(w, "condsel_selcache_capacity %d\n", st.Capacity)
	}

	if s.cfg.Pool != nil {
		if p := s.cfg.Pool(); p != nil {
			sits, quarantined, gen := p.HealthCounts()
			fmt.Fprintf(w, "# HELP condsel_pool_sits SIT statistics currently in the pool.\n# TYPE condsel_pool_sits gauge\n")
			fmt.Fprintf(w, "condsel_pool_sits %d\n", sits)
			fmt.Fprintf(w, "# HELP condsel_pool_quarantined SITs currently quarantined by validation.\n# TYPE condsel_pool_quarantined gauge\n")
			fmt.Fprintf(w, "condsel_pool_quarantined %d\n", quarantined)
			fmt.Fprintf(w, "# HELP condsel_pool_generation Pool content generation stamp.\n# TYPE condsel_pool_generation gauge\n")
			fmt.Fprintf(w, "condsel_pool_generation %d\n", gen)
		}
	}

	if s.cfg.Lifecycle != nil {
		lc := s.cfg.Lifecycle.CountersSnapshot()
		fmt.Fprintf(w, "# HELP condsel_lifecycle_statistics Managed statistics by lifecycle state.\n# TYPE condsel_lifecycle_statistics gauge\n")
		for _, kv := range []struct {
			state string
			n     int
		}{{"healthy", lc.Healthy}, {"stale", lc.Stale}, {"rebuilding", lc.Rebuilding}, {"parked", lc.Parked}} {
			fmt.Fprintf(w, "condsel_lifecycle_statistics{state=%q} %d\n", kv.state, kv.n)
		}
		fmt.Fprintf(w, "# HELP condsel_lifecycle_rebuilds_total Completed statistics rebuilds.\n# TYPE condsel_lifecycle_rebuilds_total counter\n")
		fmt.Fprintf(w, "condsel_lifecycle_rebuilds_total %d\n", lc.Rebuilds)
		fmt.Fprintf(w, "# HELP condsel_lifecycle_failures_total Failed statistics rebuilds.\n# TYPE condsel_lifecycle_failures_total counter\n")
		fmt.Fprintf(w, "condsel_lifecycle_failures_total %d\n", lc.Failures)
		fmt.Fprintf(w, "# HELP condsel_lifecycle_swaps_total Estimator epoch hot-swaps.\n# TYPE condsel_lifecycle_swaps_total counter\n")
		fmt.Fprintf(w, "condsel_lifecycle_swaps_total %d\n", lc.Swaps)
		fmt.Fprintf(w, "# HELP condsel_lifecycle_dropped_observations_total Feedback observations dropped (stale generation or full queue).\n# TYPE condsel_lifecycle_dropped_observations_total counter\n")
		fmt.Fprintf(w, "condsel_lifecycle_dropped_observations_total %d\n", lc.DroppedObs)
		fmt.Fprintf(w, "# HELP condsel_lifecycle_checkpoint_seq Sequence number of the last SITSNAP checkpoint written.\n# TYPE condsel_lifecycle_checkpoint_seq gauge\n")
		fmt.Fprintf(w, "condsel_lifecycle_checkpoint_seq %d\n", lc.CheckpointSeq)
		fmt.Fprintf(w, "# HELP condsel_lifecycle_corrupt_snapshots Corrupt snapshot files detected at recovery.\n# TYPE condsel_lifecycle_corrupt_snapshots gauge\n")
		fmt.Fprintf(w, "condsel_lifecycle_corrupt_snapshots %d\n", lc.CorruptSnapshots)
	}

	if s.cfg.Cluster != nil {
		cc := s.cfg.Cluster()
		fmt.Fprintf(w, "# HELP condsel_cluster_nodes Cluster membership size.\n# TYPE condsel_cluster_nodes gauge\n")
		fmt.Fprintf(w, "condsel_cluster_nodes %d\n", cc.Nodes)
		fmt.Fprintf(w, "# HELP condsel_cluster_peers Peer shards by replication state.\n# TYPE condsel_cluster_peers gauge\n")
		for _, kv := range []struct {
			state string
			n     int
		}{{"admitted", cc.PeersAdmitted}, {"missing", cc.PeersMissing}} {
			fmt.Fprintf(w, "condsel_cluster_peers{state=%q} %d\n", kv.state, kv.n)
		}
		fmt.Fprintf(w, "# HELP condsel_cluster_epoch This node's rebuild epoch (fencing major component).\n# TYPE condsel_cluster_epoch gauge\n")
		fmt.Fprintf(w, "condsel_cluster_epoch %d\n", cc.Epoch)
		fmt.Fprintf(w, "# HELP condsel_cluster_local_generation Local shard content generation.\n# TYPE condsel_cluster_local_generation gauge\n")
		fmt.Fprintf(w, "condsel_cluster_local_generation %d\n", cc.LocalGeneration)
		fmt.Fprintf(w, "# HELP condsel_cluster_merged_generation Merged (local+replicas) pool content generation.\n# TYPE condsel_cluster_merged_generation gauge\n")
		fmt.Fprintf(w, "condsel_cluster_merged_generation %d\n", cc.MergedGeneration)
		fmt.Fprintf(w, "# HELP condsel_cluster_replications_total Peer shard frames admitted.\n# TYPE condsel_cluster_replications_total counter\n")
		fmt.Fprintf(w, "condsel_cluster_replications_total %d\n", cc.Replications)
		fmt.Fprintf(w, "# HELP condsel_cluster_replication_failures_total Failed shard replications (one fetch each; the next anti-entropy tick retries).\n# TYPE condsel_cluster_replication_failures_total counter\n")
		fmt.Fprintf(w, "condsel_cluster_replication_failures_total %d\n", cc.ReplFailures)
		fmt.Fprintf(w, "# HELP condsel_cluster_fence_rejections_total Frames refused by epoch/generation fencing.\n# TYPE condsel_cluster_fence_rejections_total counter\n")
		fmt.Fprintf(w, "condsel_cluster_fence_rejections_total %d\n", cc.FenceRejections)
		fmt.Fprintf(w, "# HELP condsel_cluster_degraded_total Estimates answered from the local ladder because a needed peer shard was not yet admitted.\n# TYPE condsel_cluster_degraded_total counter\n")
		fmt.Fprintf(w, "condsel_cluster_degraded_total %d\n", cc.Degraded)
	}
}

// formatFloat renders a float the way Prometheus clients expect: shortest
// representation that round-trips, no exponent for these magnitudes.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// sortedBuckets is a compile-time-ish guard used by tests; exposition relies
// on latencyBuckets being ascending.
func sortedBuckets() bool { return sort.Float64sAreSorted(latencyBuckets[:]) }
