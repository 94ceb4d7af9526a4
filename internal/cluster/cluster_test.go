package cluster

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// fastConfig is harness tuning that keeps failure arcs quick: a short
// fetch deadline.
func fastConfig() Config {
	return Config{FetchDeadline: 50 * time.Millisecond}
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

// TestPartitionDegradesNeverErrors is the acceptance arc: a node boots
// the way sitnode does — warm-up, which fails on a partitioned peer — and
// 100% of estimates still answer. Degraded answers carry
// remote-shard-unavailable provenance naming the peer and the cause of its
// failed fetch, none error, each is counted once, and concurrent estimation
// under -race stays clean.
func TestPartitionDegradesNeverErrors(t *testing.T) {
	fx := newClusterFixture(t)
	h, err := NewHarness(fx.cat, fx.pool, 3, fastConfig())
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	ctx := context.Background()
	victim, lost := h.Node(0), h.IDs[1]
	h.Transport.Partition(victim.ID(), lost)
	if err := victim.WarmUp(ctx); err == nil || !strings.Contains(err.Error(), string(lost)) {
		t.Fatalf("warm-up across a partition returned %v, want an error naming %s", err, lost)
	}

	needLost := make(map[*engine.Query]bool)
	for _, q := range fx.queries {
		for _, owner := range h.Ring.QueryOwners(fx.cat, q) {
			if owner == lost {
				needLost[q] = true
			}
		}
	}
	if len(needLost) == 0 {
		t.Fatal("fixture workload never touches the partitioned shard — ring layout changed?")
	}

	var wg sync.WaitGroup
	var degraded atomic.Int64
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
					if strings.Contains(prov.FallbackReason, robust.RemoteUnavailablePrefix) {
						degraded.Add(1)
					}
					if needLost[q] && !strings.Contains(prov.FallbackReason, string(lost)+"/partitioned") {
						t.Errorf("%s: needs shard of %s but provenance %q lacks %s/partitioned",
							q, lost, prov.FallbackReason, lost)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	c := victim.Counters()
	if c.Degraded == 0 || c.Degraded != degraded.Load() {
		t.Fatalf("Degraded = %d, want the %d degraded answers", c.Degraded, degraded.Load())
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
// the wire decoder: warm-up fails, and the estimate still answers, with
// provenance naming the failed fetch.
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
	if err := victim.WarmUp(ctx); err == nil {
		t.Fatal("warm-up admitted a truncated stream")
	}

	for _, q := range fx.queries {
		card, prov := victim.Estimate(ctx, q, robust.Config{})
		if math.IsNaN(card) || math.IsInf(card, 0) || card < 0 {
			t.Fatalf("%s: bad cardinality %v under truncated streams", q, card)
		}
		if prov.Tier != robust.TierFullDP && !strings.Contains(prov.FallbackReason, string(h.IDs[1])+"/fetch-failed") {
			t.Fatalf("%s: degraded answer's provenance %q does not name the torn fetch", q, prov.FallbackReason)
		}
	}
	if victim.Counters().Degraded == 0 {
		t.Fatal("truncated streams never degraded an estimate — the peer shard was admitted from a torn frame?")
	}
	if victim.Counters().PeersAdmitted != 0 {
		t.Fatal("a truncated frame was admitted")
	}
}

// countingTransport counts the fetches that reach the transport.
type countingTransport struct {
	Transport
	fetches atomic.Int64
}

func (c *countingTransport) Fetch(ctx context.Context, from, peer NodeID) (*Frame, error) {
	c.fetches.Add(1)
	return c.Transport.Fetch(ctx, from, peer)
}

// TestSlowPeerHonorsDeadline: estimates never call the transport, so a slow
// peer costs them nothing. A cold member of a 3-node cluster, with a 1 s
// slow peer armed, answers every fixture query well within a request
// deadline from what replication admitted — here, its own shard — and each
// degraded answer names every missing owner the query needs, counted once.
// Only replication fetches: warm-up spends the fetch deadline per peer and
// records why it failed.
func TestSlowPeerHonorsDeadline(t *testing.T) {
	fx := newClusterFixture(t)
	h, err := NewHarness(fx.cat, fx.pool, 3, Config{})
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	tr := &countingTransport{Transport: h.Transport}
	self := h.IDs[0]
	cold, err := NewNode(Config{Self: self, Nodes: h.IDs}, fx.cat, h.Ring.Shard(fx.pool, self), tr)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	ctx := context.Background()

	sched := faults.NewSchedule(1).Set(faults.NetSlowPeer, faults.Rule{})
	sched.SlowFactorDelay = time.Second
	faults.Arm(sched)
	defer faults.Disarm()

	// missingOwners names, sorted, the peers whose shards q draws from.
	missingOwners := func(q *engine.Query) []NodeID {
		var peers []NodeID
		for _, owner := range h.Ring.QueryOwners(fx.cat, q) {
			if owner != self {
				peers = append(peers, owner)
			}
		}
		sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
		return peers
	}
	checkAnswers := func(cause string) {
		t.Helper()
		before := cold.Counters().Degraded
		var degraded int64
		twoOwners := false
		for _, q := range fx.queries {
			start := time.Now()
			card, prov := cold.Estimate(ctx, q, robust.Config{})
			if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
				t.Fatalf("%s: estimate took %v behind a slow peer", q, elapsed)
			}
			if math.IsNaN(card) || card < 0 {
				t.Fatalf("%s: bad cardinality %v behind a slow peer", q, card)
			}
			owners := missingOwners(q)
			if len(owners) == 0 {
				if prov.Tier != robust.TierFullDP {
					t.Fatalf("%s: needs only the local shard but answered from %s (%s)", q, prov.Tier, prov.FallbackReason)
				}
				continue
			}
			degraded++
			twoOwners = twoOwners || len(owners) > 1
			var names []string
			for _, peer := range owners {
				names = append(names, string(peer)+"/"+cause)
			}
			want := robust.RemoteUnavailablePrefix + ": " + strings.Join(names, ", ")
			if !strings.Contains(prov.FallbackReason, want) {
				t.Fatalf("%s: provenance %q, want it to contain %q", q, prov.FallbackReason, want)
			}
		}
		if !twoOwners {
			t.Fatal("no fixture query needs two missing owners — ring layout changed?")
		}
		if got := cold.Counters().Degraded - before; got != degraded {
			t.Fatalf("Degraded moved by %d over %d degraded answers", got, degraded)
		}
	}

	checkAnswers(neverFetched)
	if n := tr.fetches.Load(); n != 0 {
		t.Fatalf("estimates made %d transport fetches, want 0", n)
	}

	if err := cold.WarmUp(ctx); err == nil {
		t.Fatal("warm-up beat a 1 s slow peer under the 200 ms fetch deadline")
	}
	if n, want := tr.fetches.Load(), int64(len(h.IDs)-1); n != want {
		t.Fatalf("warm-up made %d fetches, want one per peer (%d)", n, want)
	}
	checkAnswers("deadline")
	if n, want := tr.fetches.Load(), int64(len(h.IDs)-1); n != want {
		t.Fatalf("estimates after warm-up fetched: %d fetches, want %d", n, want)
	}
}
