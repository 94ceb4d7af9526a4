package cluster

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"condsel/internal/core"
	"condsel/internal/engine"
	"condsel/internal/faults"
	"condsel/internal/robust"
	"condsel/internal/sit"
)

// clusterFixture is the shared test world: the repository's standard
// 3-table correlated star, a workload of queries over it, and the full
// statistics pool a single-node estimator would own.
type clusterFixture struct {
	cat     *engine.Catalog
	pool    *sit.Pool
	queries []*engine.Query
}

func newClusterFixture(t testing.TB) *clusterFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	cat := engine.NewCatalog()
	const nCustomers, nOrders = 60, 300

	cid := make([]int64, nCustomers)
	nation := make([]int64, nCustomers)
	for i := range cid {
		cid[i] = int64(i)
		if rng.Float64() < 0.8 {
			nation[i] = 1
		} else {
			nation[i] = int64(2 + rng.Intn(20))
		}
	}
	cat.MustAddTable(&engine.Table{Name: "customer", Cols: []*engine.Column{
		{Name: "id", Vals: cid},
		{Name: "nation", Vals: nation},
	}})

	oid := make([]int64, nOrders)
	ocid := make([]int64, nOrders)
	price := make([]int64, nOrders)
	var liOID, liQty []int64
	for i := range oid {
		oid[i] = int64(i)
		ocid[i] = int64(rng.Intn(nCustomers))
		price[i] = int64(rng.Intn(1000))
		items := 1
		if price[i] > 800 {
			items = 12
		}
		for k := 0; k < items; k++ {
			liOID = append(liOID, oid[i])
			liQty = append(liQty, int64(rng.Intn(50)))
		}
	}
	cat.MustAddTable(&engine.Table{Name: "orders", Cols: []*engine.Column{
		{Name: "id", Vals: oid},
		{Name: "cid", Vals: ocid},
		{Name: "price", Vals: price},
	}})
	cat.MustAddTable(&engine.Table{Name: "lineitem", Cols: []*engine.Column{
		{Name: "oid", Vals: liOID},
		{Name: "qty", Vals: liQty},
	}})

	j1 := engine.Join(cat.MustAttr("lineitem.oid"), cat.MustAttr("orders.id"))
	j2 := engine.Join(cat.MustAttr("orders.cid"), cat.MustAttr("customer.id"))
	fPrice := engine.Filter(cat.MustAttr("orders.price"), 801, 1000)
	fNation := engine.Eq(cat.MustAttr("customer.nation"), 1)
	fQty := engine.Filter(cat.MustAttr("lineitem.qty"), 0, 24)

	queries := []*engine.Query{
		engine.NewQuery(cat, []engine.Pred{j1, j2, fPrice, fNation}),
		engine.NewQuery(cat, []engine.Pred{j2, fNation}),
		engine.NewQuery(cat, []engine.Pred{j1, fQty, fPrice}),
		engine.NewQuery(cat, []engine.Pred{fPrice}),
		engine.NewQuery(cat, []engine.Pred{j1, j2, fQty}),
	}
	pool := sit.BuildWorkloadPool(sit.NewBuilder(cat), queries, 2)
	return &clusterFixture{cat: cat, pool: pool, queries: queries}
}

// fastConfig is harness tuning that keeps failure arcs quick: short fetch
// deadlines, two attempts, millisecond backoff.
func fastConfig() Config {
	return Config{
		FetchDeadline: 50 * time.Millisecond,
		MaxAttempts:   2,
		BackoffBase:   time.Millisecond,
		BackoffCap:    4 * time.Millisecond,
		Seed:          1,
	}
}

// reference answers queries the way a single node owning the full pool
// would.
func (fx *clusterFixture) reference() *robust.Estimator {
	return robust.New(core.NewEstimator(fx.cat, fx.pool, core.Diff{}), robust.Config{})
}

// TestWarmClusterBitIdentical: after every node replicates every peer,
// each node's estimate equals the single-node full-pool answer bit for
// bit, at full fidelity.
func TestWarmClusterBitIdentical(t *testing.T) {
	fx := newClusterFixture(t)
	h, err := NewHarness(fx.cat, fx.pool, 3, fastConfig())
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	ctx := context.Background()
	if err := h.WarmAll(ctx); err != nil {
		t.Fatalf("WarmAll: %v", err)
	}
	ref := fx.reference()
	for _, q := range fx.queries {
		want, _ := ref.Cardinality(ctx, q)
		for _, id := range h.IDs {
			got, prov := h.Nodes[id].Estimate(ctx, q, robust.Config{})
			if got != want {
				t.Fatalf("node %s: %s: card %v, single-node %v", id, q, got, want)
			}
			if prov.Tier != robust.TierFullDP {
				t.Fatalf("node %s answered from %s on a warm cluster (%s)", id, prov.Tier, prov.FallbackReason)
			}
		}
	}
}

// TestPartitionDegradesNeverErrors is the acceptance arc: with a peer
// partitioned away, 100% of estimates still answer — degraded answers
// carry remote-shard-unavailable provenance naming the peer, none error,
// and concurrent estimation under -race stays clean.
func TestPartitionDegradesNeverErrors(t *testing.T) {
	fx := newClusterFixture(t)
	h, err := NewHarness(fx.cat, fx.pool, 3, fastConfig())
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	ctx := context.Background()
	// No warm-up: node-0 starts with every peer missing, and node-1 is
	// unreachable from the start.
	victim, lost := h.Node(0), h.IDs[1]
	h.Transport.Partition(victim.ID(), lost)

	needLost := make(map[*engine.Query]bool)
	for _, q := range fx.queries {
		for _, p := range q.Preds {
			for _, attr := range predAttrs(p) {
				if h.Ring.OwnerOfAttr(fx.cat, attr) == lost {
					needLost[q] = true
				}
			}
		}
	}
	if len(needLost) == 0 {
		t.Fatal("fixture workload never touches the partitioned shard — ring layout changed?")
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, q := range fx.queries {
					card, prov := victim.Estimate(ctx, q, robust.Config{})
					if math.IsNaN(card) || math.IsInf(card, 0) || card < 0 {
						t.Errorf("%s: non-finite cardinality %v", q, card)
						return
					}
					if needLost[q] && !strings.Contains(prov.FallbackReason, robust.RemoteUnavailablePrefix) {
						t.Errorf("%s: needs shard of %s but provenance %q lacks %s",
							q, lost, prov.FallbackReason, robust.RemoteUnavailablePrefix)
						return
					}
					if needLost[q] && !strings.Contains(prov.FallbackReason, string(lost)) {
						t.Errorf("%s: provenance %q does not name the partitioned peer", q, prov.FallbackReason)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	c := victim.Counters()
	if c.Degraded == 0 {
		t.Fatal("partition never degraded an estimate")
	}
	if c.ReplFailures == 0 {
		t.Fatal("no replication failure recorded")
	}
}

// TestHealRereplicateBitIdentical: a partitioned peer rebuilds its shard
// (epoch bump) while cut off; after heal + re-replication the victim's
// answers are bit-identical to a single-node estimator over the healed
// full pool, and the stale pre-heal answers are gone.
func TestHealRereplicateBitIdentical(t *testing.T) {
	fx := newClusterFixture(t)
	h, err := NewHarness(fx.cat, fx.pool, 3, fastConfig())
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	ctx := context.Background()
	if err := h.WarmAll(ctx); err != nil {
		t.Fatalf("WarmAll: %v", err)
	}
	victim, rebuilt := h.Node(0), h.Node(1)

	h.Transport.Partition(victim.ID(), rebuilt.ID())
	// The cut-off peer rebuilds its shard from scratch: new epoch, same
	// statistics content (a restart-shaped rebuild).
	rebuilt.RebuildLocal(h.Ring.Shard(fx.pool, rebuilt.ID()))
	if got := rebuilt.Stamp().Epoch.Count(); got != 2 {
		t.Fatalf("rebuild epoch = %d, want 2", got)
	}

	// During the partition the victim still answers (stale replica is
	// fine — fencing only refuses going backwards).
	for _, q := range fx.queries {
		if card, _ := victim.Estimate(ctx, q, robust.Config{}); math.IsNaN(card) {
			t.Fatalf("%s: NaN during partition", q)
		}
	}

	h.Transport.Heal(victim.ID(), rebuilt.ID())
	if err := victim.Replicate(ctx, rebuilt.ID()); err != nil {
		t.Fatalf("re-replication after heal: %v", err)
	}
	if got := victim.vec.Get(rebuilt.ID()).Epoch.Count(); got != 2 {
		t.Fatalf("admitted epoch = %d, want 2 after rebuild", got)
	}

	ref := fx.reference()
	for _, q := range fx.queries {
		want, _ := ref.Cardinality(ctx, q)
		got, prov := victim.Estimate(ctx, q, robust.Config{})
		if got != want {
			t.Fatalf("%s: healed answer %v, single-node %v", q, got, want)
		}
		if prov.Tier != robust.TierFullDP {
			t.Fatalf("%s: healed cluster answered from %s", q, prov.Tier)
		}
	}
}

// TestStaleEpochReplayRejected: a replayed old frame is refused by the
// fence and bumps no generation — the second half of the acceptance
// criteria.
func TestStaleEpochReplayRejected(t *testing.T) {
	fx := newClusterFixture(t)
	h, err := NewHarness(fx.cat, fx.pool, 3, fastConfig())
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	ctx := context.Background()
	victim, peer := h.Node(0), h.Node(1)
	// First fetch records the epoch-1 frame as the transport's "oldest".
	if err := victim.Replicate(ctx, peer.ID()); err != nil {
		t.Fatalf("initial replicate: %v", err)
	}
	// Peer rebuilds; the victim admits epoch 2.
	peer.RebuildLocal(h.Ring.Shard(fx.pool, peer.ID()))
	if err := victim.Replicate(ctx, peer.ID()); err != nil {
		t.Fatalf("replicate after rebuild: %v", err)
	}
	genBefore := victim.MergedGeneration()
	admittedBefore := victim.vec.Get(peer.ID())
	rejectionsBefore := victim.Counters().FenceRejections

	// Replay the epoch-1 frame at the victim.
	sched := faults.NewSchedule(1).Set(faults.NetStaleEpoch, faults.Rule{Limit: 1})
	faults.Arm(sched)
	defer faults.Disarm()
	err = victim.Replicate(ctx, peer.ID())
	if err == nil {
		t.Fatal("stale-epoch replay was admitted")
	}
	if !strings.Contains(err.Error(), "stale-epoch") {
		t.Fatalf("replay failed with %v, want a stale-epoch fence rejection", err)
	}
	if got := victim.MergedGeneration(); got != genBefore {
		t.Fatalf("stale replay bumped the merged generation %d -> %d", genBefore, got)
	}
	if got := victim.vec.Get(peer.ID()); got != admittedBefore {
		t.Fatalf("stale replay moved the admitted stamp %v -> %v", admittedBefore, got)
	}
	if got := victim.Counters().FenceRejections; got != rejectionsBefore+1 {
		t.Fatalf("FenceRejections = %d, want %d", got, rejectionsBefore+1)
	}
}

// TestDuplicateDeliveryIdempotent: re-delivering the admitted frame is a
// no-op success — no error, no generation churn, caches stay warm.
func TestDuplicateDeliveryIdempotent(t *testing.T) {
	fx := newClusterFixture(t)
	h, err := NewHarness(fx.cat, fx.pool, 2, fastConfig())
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	ctx := context.Background()
	victim, peer := h.Node(0), h.Node(1)
	if err := victim.Replicate(ctx, peer.ID()); err != nil {
		t.Fatalf("initial replicate: %v", err)
	}
	genBefore := victim.MergedGeneration()
	replBefore := victim.Counters().Replications

	sched := faults.NewSchedule(1).Set(faults.NetDuplicateDelivery, faults.Rule{Limit: 1})
	faults.Arm(sched)
	defer faults.Disarm()
	if err := victim.Replicate(ctx, peer.ID()); err != nil {
		t.Fatalf("duplicate delivery errored: %v", err)
	}
	if got := victim.MergedGeneration(); got != genBefore {
		t.Fatalf("duplicate delivery bumped the merged generation %d -> %d", genBefore, got)
	}
	if got := victim.Counters().Replications; got != replBefore {
		t.Fatalf("duplicate delivery counted as a replication (%d -> %d)", replBefore, got)
	}
}

// TestTruncatedStreamDegrades: a shard stream cut mid-frame is rejected by
// the wire decoder and handled as one more unavailable-shard case — the
// estimate still answers, with provenance.
func TestTruncatedStreamDegrades(t *testing.T) {
	fx := newClusterFixture(t)
	h, err := NewHarness(fx.cat, fx.pool, 2, fastConfig())
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	ctx := context.Background()
	victim := h.Node(0)

	sched := faults.NewSchedule(1).Set(faults.NetTruncatedStream, faults.Rule{})
	faults.Arm(sched)
	defer faults.Disarm()

	for _, q := range fx.queries {
		card, prov := victim.Estimate(ctx, q, robust.Config{})
		if math.IsNaN(card) || math.IsInf(card, 0) || card < 0 {
			t.Fatalf("%s: bad cardinality %v under truncated streams", q, card)
		}
		_ = prov
	}
	if victim.Counters().Degraded == 0 {
		t.Fatal("truncated streams never degraded an estimate — the peer shard was admitted from a torn frame?")
	}
	if victim.Counters().PeersAdmitted != 0 {
		t.Fatal("a truncated frame was admitted")
	}
}

// TestBreakerFailsFast: after the breaker trips on a partitioned peer,
// estimates stop paying fetch deadlines — the transport sees no more
// traffic until the cooldown.
func TestBreakerFailsFast(t *testing.T) {
	fx := newClusterFixture(t)
	clk := &fakeClock{t: time.Unix(0, 0)}
	cfg := fastConfig()
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Hour
	cfg.Now = clk.now
	h, err := NewHarness(fx.cat, fx.pool, 2, cfg)
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	ctx := context.Background()
	victim, lost := h.Node(0), h.IDs[1]
	h.Transport.Partition(victim.ID(), lost)

	// Drive failures until the breaker trips.
	for i := 0; i < 3 && !victim.breakers[lost].Tripped(); i++ {
		_ = victim.Replicate(ctx, lost)
	}
	if !victim.breakers[lost].Tripped() {
		t.Fatal("breaker never tripped on a hard partition")
	}
	if err := victim.Replicate(ctx, lost); err != ErrBreakerOpen {
		t.Fatalf("tripped breaker let a call through: %v", err)
	}
	// Estimates still answer, with breaker-open provenance.
	q := fx.queries[0]
	card, prov := victim.Estimate(ctx, q, robust.Config{})
	if math.IsNaN(card) || card < 0 {
		t.Fatalf("bad cardinality %v behind a tripped breaker", card)
	}
	if !strings.Contains(prov.FallbackReason, "breaker-open") && !strings.Contains(prov.FallbackReason, robust.RemoteUnavailablePrefix) {
		t.Fatalf("provenance %q does not record the unavailable shard", prov.FallbackReason)
	}
	// After the cooldown the half-open probe heals the breaker once the
	// partition is gone.
	h.Transport.HealAll()
	clk.advance(2 * time.Hour)
	if err := victim.Replicate(ctx, lost); err != nil {
		t.Fatalf("half-open probe after heal failed: %v", err)
	}
	if victim.breakers[lost].Tripped() {
		t.Fatal("breaker still open after a successful probe")
	}
}

// TestProbeCancelledContextDoesNotStrandBreaker is the probe-leak
// regression arc: trip the breaker, elapse the cooldown, fail the
// half-open probe with a dead request context (Estimate hands the request
// ctx straight through, so a request-deadline expiry during the probe is
// routine). The probe must be released — before the fix, probing stayed
// true forever and every later call, anti-entropy included, got
// ErrBreakerOpen until process restart.
func TestProbeCancelledContextDoesNotStrandBreaker(t *testing.T) {
	fx := newClusterFixture(t)
	clk := &fakeClock{t: time.Unix(0, 0)}
	cfg := fastConfig()
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Hour
	cfg.Now = clk.now
	h, err := NewHarness(fx.cat, fx.pool, 2, cfg)
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	ctx := context.Background()
	victim, lost := h.Node(0), h.IDs[1]
	h.Transport.Partition(victim.ID(), lost)
	for i := 0; i < 3 && !victim.breakers[lost].Tripped(); i++ {
		_ = victim.Replicate(ctx, lost)
	}
	if !victim.breakers[lost].Tripped() {
		t.Fatal("breaker never tripped on a hard partition")
	}

	// Cooldown elapses; the admitted half-open probe runs under an
	// already-cancelled context and exits without Success or Failure.
	clk.advance(2 * time.Hour)
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if err := victim.Replicate(dead, lost); err == nil {
		t.Fatal("probe under a cancelled context reported success")
	}

	// The partition heals; the very next call must run as a fresh probe.
	h.Transport.HealAll()
	if err := victim.Replicate(ctx, lost); err != nil {
		t.Fatalf("breaker stranded after a cancelled probe: %v", err)
	}
	if victim.breakers[lost].Tripped() {
		t.Fatal("breaker still open after a successful probe")
	}
}

// TestProbeFencedReplayDoesNotStrandBreaker: the other indeterminate probe
// outcome — the fetch succeeds but the frame is a stale-epoch replay the
// fence refuses. The breaker must neither re-trip (the peer was reachable)
// nor leak the probe.
func TestProbeFencedReplayDoesNotStrandBreaker(t *testing.T) {
	fx := newClusterFixture(t)
	clk := &fakeClock{t: time.Unix(0, 0)}
	cfg := fastConfig()
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Hour
	cfg.Now = clk.now
	h, err := NewHarness(fx.cat, fx.pool, 2, cfg)
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	ctx := context.Background()
	victim, peer := h.Node(0), h.Node(1)
	// Record the epoch-1 frame as the transport's replayable "oldest", then
	// admit the peer's epoch-2 rebuild so a replay is genuinely stale.
	if err := victim.Replicate(ctx, peer.ID()); err != nil {
		t.Fatalf("initial replicate: %v", err)
	}
	peer.RebuildLocal(h.Ring.Shard(fx.pool, peer.ID()))
	if err := victim.Replicate(ctx, peer.ID()); err != nil {
		t.Fatalf("replicate after rebuild: %v", err)
	}

	h.Transport.Partition(victim.ID(), peer.ID())
	for i := 0; i < 3 && !victim.breakers[peer.ID()].Tripped(); i++ {
		_ = victim.Replicate(ctx, peer.ID())
	}
	if !victim.breakers[peer.ID()].Tripped() {
		t.Fatal("breaker never tripped")
	}
	h.Transport.HealAll()
	clk.advance(2 * time.Hour)

	// The half-open probe fetches a stale replay; the fence refuses it.
	sched := faults.NewSchedule(1).Set(faults.NetStaleEpoch, faults.Rule{Limit: 1})
	faults.Arm(sched)
	err = victim.Replicate(ctx, peer.ID())
	faults.Disarm()
	if err == nil || !strings.Contains(err.Error(), "stale-epoch") {
		t.Fatalf("probe replay failed with %v, want stale-epoch rejection", err)
	}

	// The probe was released: the next call is admitted and heals.
	if err := victim.Replicate(ctx, peer.ID()); err != nil {
		t.Fatalf("breaker stranded after a fenced probe: %v", err)
	}
	if victim.breakers[peer.ID()].Tripped() {
		t.Fatal("breaker still open after a successful probe")
	}
}

// TestSlowPeerHonorsDeadline: a slow peer burns the per-call deadline, not
// the estimate — the answer arrives degraded within the fetch budget.
func TestSlowPeerHonorsDeadline(t *testing.T) {
	fx := newClusterFixture(t)
	cfg := fastConfig()
	cfg.FetchDeadline = 5 * time.Millisecond
	cfg.MaxAttempts = 1
	h, err := NewHarness(fx.cat, fx.pool, 2, cfg)
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	ctx := context.Background()
	victim := h.Node(0)

	sched := faults.NewSchedule(1).Set(faults.NetSlowPeer, faults.Rule{})
	sched.SlowFactorDelay = time.Second
	faults.Arm(sched)
	defer faults.Disarm()

	start := time.Now()
	card, _ := victim.Estimate(ctx, fx.queries[0], robust.Config{})
	if math.IsNaN(card) || card < 0 {
		t.Fatalf("bad cardinality %v behind a slow peer", card)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("slow peer stalled the estimate for %v despite a 5ms fetch deadline", elapsed)
	}
}
