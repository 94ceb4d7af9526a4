// Package cluster is the distributed statistics tier: SIT pools sharded
// across N nodes by (table, attribute) on a deterministic consistent-hash
// ring, replicated by shipping the checksummed SITSNAP pool payload over a
// length-prefixed wire codec, and fenced by per-node epochs plus a
// cluster-wide generation vector so a rebuilt pool on one node invalidates
// every remotely cached selectivity computed against its old shard.
//
// Robustness is the contract: estimation NEVER errors because a peer is
// slow, partitioned or recovering, and never waits on one. Only WarmUp and
// ReplicateLoop call the transport, one fetch per peer under a per-call
// deadline; a failed fetch is retried at the loop's next tick. Estimate
// reads the merged pool replication has admitted, and a query that needs a
// shard not yet admitted is answered by the local degradation ladder with
// `remote-shard-unavailable: <peer>/<cause>` provenance — fidelity
// degrades, availability does not, end to end through internal/serve.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"condsel/internal/core"
	"condsel/internal/engine"
	"condsel/internal/robust"
	"condsel/internal/sit"
)

// DefaultFetchDeadline bounds one remote fetch when Config leaves
// FetchDeadline zero.
const DefaultFetchDeadline = 200 * time.Millisecond

// Config describes one node's view of the cluster.
type Config struct {
	// Self is this node's identity; it must appear in Nodes.
	Self NodeID
	// Nodes is the full membership. Every node must be configured with the
	// same set (order irrelevant) — the ring is derived from it.
	Nodes []NodeID
	// VNodes is the virtual-node count per member (0: DefaultVNodes).
	VNodes int

	// Model is the estimation error model (nil: Diff, the paper's default).
	Model core.ErrorModel
	// Cache, when non-nil, is the cross-query selectivity cache shared by
	// the merged estimators. Entries are keyed by merged-pool generation,
	// so admitting a newer peer shard orphans them and the LRU ages them
	// out (see installLocked).
	Cache *core.SelCacheStore

	// FetchDeadline bounds each remote fetch (0: DefaultFetchDeadline).
	FetchDeadline time.Duration

	// Epoch is the node's starting rebuild epoch (0: 1). Epochs must be
	// strictly increasing across the node's lifetime INCLUDING restarts —
	// peers fence on (epoch, generation) and pool generations reset with
	// the process, so a restarted node that reuses an old epoch is fenced
	// out forever. Restore it from an EpochFile (which counts restarts
	// durably) or another monotonic source.
	Epoch uint64
	// EpochSink, when non-nil, is invoked synchronously with the new epoch
	// each time RebuildLocal bumps it, before any frame can carry the new
	// stamp — wire it to (*EpochFile).Store so the on-disk epoch never
	// falls behind the one peers have admitted.
	EpochSink func(uint64)
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.Model == nil {
		c.Model = core.Diff{}
	}
	if c.FetchDeadline <= 0 {
		c.FetchDeadline = DefaultFetchDeadline
	}
	if c.Epoch == 0 {
		c.Epoch = 1
	}
	return c
}

// replica is one peer's admitted shard.
type replica struct {
	stamp Stamp
	pool  *sit.Pool
}

// merged is the immutable estimation state the hot path reads with one
// atomic load: the merged pool (local shard + every admitted replica), its
// warmed estimator, and the precomputed set of peers with no admitted
// shard. When missing is empty — the steady state — Estimate costs one
// atomic load and a length check more than a single-node ladder.
type merged struct {
	pool *sit.Pool
	est  *core.Estimator
	// ladder is the prebuilt zero-config degradation ladder: the steady
	// state answers through it without any per-call construction.
	ladder *robust.Estimator
	// missing is the set of peers with no admitted replica.
	missing map[NodeID]bool
}

// ladderFor returns the ladder configured with cfg, reusing the prebuilt
// one for the (overwhelmingly common) zero config.
func (m *merged) ladderFor(cfg robust.Config) *robust.Estimator {
	if cfg == (robust.Config{}) {
		return m.ladder
	}
	return robust.New(m.est, cfg)
}

// Node is one member of the distributed statistics tier. It owns the local
// shard, serves it to peers as wire frames, pulls and fences peer shards,
// and estimates over the merged pool with degraded-local fallback.
//
// Concurrency: Estimate and ShardFrame are safe for arbitrary concurrent
// use; Replicate may run concurrently with both and with itself;
// RebuildLocal serializes against Replicate internally.
type Node struct {
	cfg  Config
	cat  *engine.Catalog
	ring *Ring
	tr   Transport

	// epoch is this node's own rebuild epoch, bumped by RebuildLocal.
	epoch atomic.Uint64

	// mu guards local, replicas and merged-state installation. The hot
	// path never takes it — it loads cur.
	mu       sync.Mutex
	local    *sit.Pool
	replicas map[NodeID]*replica
	vec      *GenVector

	cur atomic.Pointer[merged]

	// causes holds, per peer, why its last Replicate failed (neverFetched
	// before any attempt). The map is built at construction and read-only
	// after, so Estimate reads it without n.mu; a missing key is a peer
	// outside the membership.
	causes map[NodeID]*atomic.Pointer[string]

	// counters
	replications atomic.Int64 // admitted peer frames
	replFailures atomic.Int64 // failed Replicate calls
	degraded     atomic.Int64 // estimates answered below full fidelity due to a missing shard
}

// neverFetched is the provenance cause of a peer no Replicate has tried.
const neverFetched = "never-fetched"

// NewNode builds a node from its local shard. The shard should be
// ring.Shard(full, cfg.Self) — NewNode does not re-filter, so warm-start
// flows (recovering a shard from a SITSNAP checkpoint) can hand any pool.
func NewNode(cfg Config, cat *engine.Catalog, local *sit.Pool, tr Transport) (*Node, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Nodes, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	found := false
	for _, id := range ring.Nodes() {
		if id == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q not in membership %v", cfg.Self, cfg.Nodes)
	}
	if tr == nil {
		return nil, fmt.Errorf("cluster: nil transport")
	}
	n := &Node{
		cfg:      cfg,
		cat:      cat,
		ring:     ring,
		tr:       tr,
		local:    local,
		replicas: make(map[NodeID]*replica),
		vec:      NewGenVector(),
		causes:   make(map[NodeID]*atomic.Pointer[string]),
	}
	n.epoch.Store(cfg.Epoch)
	never := neverFetched
	for _, id := range ring.Nodes() {
		if id != cfg.Self {
			n.causes[id] = new(atomic.Pointer[string])
			n.causes[id].Store(&never)
		}
	}
	n.mu.Lock()
	n.installLocked()
	n.mu.Unlock()
	return n, nil
}

// ID returns the node's identity.
func (n *Node) ID() NodeID { return n.cfg.Self }

// Ring returns the node's ring view.
func (n *Node) Ring() *Ring { return n.ring }

// Stamp returns the node's current fencing stamp: its rebuild epoch and the
// local shard's content generation.
func (n *Node) Stamp() Stamp {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Stamp{Epoch: EpochOf(n.epoch.Load()), Gen: n.local.Generation()}
}

// MergedGeneration returns the content generation of the merged pool the
// hot path currently estimates over.
func (n *Node) MergedGeneration() uint64 { return n.cur.Load().pool.Generation() }

// MergedPool returns the merged pool the hot path currently estimates over
// (local shard plus admitted replicas). Callers must treat it as immutable —
// it is the published estimation state, replaced wholesale on every admit.
func (n *Node) MergedPool() *sit.Pool { return n.cur.Load().pool }

// ShardFrame encodes the local shard as a replication frame carrying the
// node's fencing stamp.
func (n *Node) ShardFrame() (*Frame, error) {
	n.mu.Lock()
	local := n.local
	stamp := Stamp{Epoch: EpochOf(n.epoch.Load()), Gen: local.Generation()}
	n.mu.Unlock()
	var buf payloadBuffer
	if err := local.Encode(&buf); err != nil {
		return nil, fmt.Errorf("cluster: encoding shard: %w", err)
	}
	return &Frame{Node: n.cfg.Self, Stamp: stamp, Payload: buf.b}, nil
}

// payloadBuffer is a minimal growing write buffer (avoids importing bytes
// just for one sink).
type payloadBuffer struct{ b []byte }

func (p *payloadBuffer) Write(d []byte) (int, error) {
	p.b = append(p.b, d...)
	return len(d), nil
}

// RebuildLocal replaces the local shard wholesale and bumps the node's
// epoch — the fencing event: peers that admitted the old shard will see a
// strictly newer stamp on their next fetch, and any frame of the old epoch
// that is still in flight is refused by their fences.
func (n *Node) RebuildLocal(pool *sit.Pool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	epoch := n.epoch.Add(1)
	if n.cfg.EpochSink != nil {
		// Persist before the new stamp can leave the node: once a peer
		// admits it, a restart must come back with a higher epoch still.
		n.cfg.EpochSink(epoch)
	}
	n.local = pool
	n.installLocked()
}

// installLocked rebuilds the merged pool from the local shard plus every
// admitted replica and publishes it under a new generation; the previous
// merged generation's cache entries age out of the LRU. Callers hold n.mu.
func (n *Node) installLocked() {
	pool := sit.NewPool(n.cat)
	for _, s := range n.local.SITs() {
		pool.Add(s)
	}
	for _, s := range n.local.SITs2D() {
		pool.Add2D(s)
	}
	peers := make([]NodeID, 0, len(n.replicas))
	for id := range n.replicas {
		peers = append(peers, id)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for _, id := range peers {
		rep := n.replicas[id]
		for _, s := range rep.pool.SITs() {
			pool.Add(s)
		}
		for _, s := range rep.pool.SITs2D() {
			pool.Add2D(s)
		}
	}

	missing := make(map[NodeID]bool)
	for _, id := range n.ring.Nodes() {
		if id == n.cfg.Self {
			continue
		}
		if _, ok := n.replicas[id]; !ok {
			missing[id] = true
		}
	}

	est := core.NewEstimator(n.cat, pool, n.cfg.Model)
	if n.cfg.Cache != nil {
		est.Cache = n.cfg.Cache
	}
	n.cur.Store(&merged{
		pool: pool, est: est, ladder: robust.New(est, robust.Config{}),
		missing: missing,
	})
}

// Replicate fetches the peer's current shard once, fences it against the
// generation vector and, when admitted, installs it into the merged pool.
// A frame equal to the admitted stamp is a no-op success (duplicate
// delivery); an older one is rejected by the fence and reported as an
// error without touching any state. A failure is counted and its cause
// kept for the provenance of estimates that need the shard; Replicate does
// not retry — ReplicateLoop's next tick does.
func (n *Node) Replicate(ctx context.Context, peer NodeID) error {
	if peer == n.cfg.Self {
		return nil
	}
	cause := n.causes[peer]
	if cause == nil {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, peer)
	}
	frame, err := n.fetchOnce(ctx, peer)
	if err == nil {
		err = n.admit(peer, frame)
	}
	if err != nil {
		reason := errorReason(err)
		cause.Store(&reason)
		n.replFailures.Add(1)
	}
	return err
}

// fetchOnce performs one transport fetch under the per-call deadline.
func (n *Node) fetchOnce(ctx context.Context, peer NodeID) (*Frame, error) {
	cctx, cancel := context.WithTimeout(ctx, n.cfg.FetchDeadline)
	defer cancel()
	frame, err := n.tr.Fetch(cctx, n.cfg.Self, peer)
	if err != nil {
		return nil, err
	}
	if frame.Node != peer {
		return nil, fmt.Errorf("cluster: frame from %q, want %q", frame.Node, peer)
	}
	return frame, nil
}

// errStaleFrame marks a frame the fence refused.
var errStaleFrame = errors.New("stale-epoch")

// admit fences and installs one fetched frame.
func (n *Node) admit(peer NodeID, frame *Frame) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	cur, have := n.replicas[peer]
	if have && frame.Stamp == cur.stamp {
		// Duplicate delivery of the admitted frame: idempotent no-op —
		// crucially, no generation bump, so caches stay warm.
		return nil
	}
	pool, err := frame.DecodePool(n.cat)
	if err != nil {
		return fmt.Errorf("decoding shard of %s: %w", peer, err)
	}
	if !n.vec.Admit(peer, frame.Stamp) {
		return fmt.Errorf("%w: frame %s from %s is not newer than admitted %s",
			errStaleFrame, frame.Stamp, peer, n.vec.Get(peer))
	}
	n.replicas[peer] = &replica{stamp: frame.Stamp, pool: pool}
	n.replications.Add(1)
	n.installLocked()
	return nil
}

// WarmUp replicates every peer once, returning the first error (the node
// remains usable — missing shards degrade, they do not disable).
func (n *Node) WarmUp(ctx context.Context) error {
	var first error
	for _, peer := range n.ring.Nodes() {
		if peer == n.cfg.Self {
			continue
		}
		if err := n.Replicate(ctx, peer); err != nil && first == nil {
			first = fmt.Errorf("warming %s: %w", peer, err)
		}
	}
	return first
}

// ReplicateLoop re-replicates every peer each interval until ctx is done —
// the anti-entropy tick that picks up a healed partition or a peer rebuild
// without waiting for a query to need the shard. Re-admitting an unchanged
// shard is a fenced no-op (same stamp), so a quiet cluster pays one fetch
// per peer per tick and zero generation churn. Errors are absorbed: each
// tick is the retry of the last one's failures, and until a shard is
// admitted, estimates that need it answer degraded.
func (n *Node) ReplicateLoop(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			for _, peer := range n.ring.Nodes() {
				if peer == n.cfg.Self {
					continue
				}
				_ = n.Replicate(ctx, peer)
			}
		}
	}
}

// Estimate answers the query through the degradation ladder over the
// node's merged statistics view; it never calls the transport. When every
// shard is admitted — the steady state — the cost over a single-node ladder
// is one atomic load and a length check. When the query needs shards
// replication has not admitted, the ladder is capped at the GVM tier with
// one `remote-shard-unavailable: <peer>/<cause>, ...` reason naming every
// such owner, so the answer comes from local statistics rather than an
// error. Estimate never fails: the contract of robust.Estimator carries
// through unchanged.
func (n *Node) Estimate(ctx context.Context, q *engine.Query, cfg robust.Config) (float64, robust.Provenance) {
	ms := n.cur.Load()
	if len(ms.missing) > 0 {
		if peers := n.neededPeers(q, ms); len(peers) > 0 {
			cfg = cfg.Cap(robust.TierGVM, n.unavailableReason(peers))
			n.degraded.Add(1)
		}
	}
	return ms.ladderFor(cfg).Cardinality(ctx, q)
}

// unavailableReason names each missing owner with the cause of its last
// failed Replicate.
func (n *Node) unavailableReason(peers []NodeID) string {
	var b strings.Builder
	b.WriteString(robust.RemoteUnavailablePrefix + ": ")
	for i, peer := range peers {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(peer) + "/" + *n.causes[peer].Load())
	}
	return b.String()
}

// neededPeers returns, sorted, the currently missing shard owners the
// query's attributes hash to.
func (n *Node) neededPeers(q *engine.Query, ms *merged) []NodeID {
	var peers []NodeID
	seen := make(map[NodeID]bool)
	for _, p := range q.Preds {
		for _, attr := range predAttrs(p) {
			owner := n.ring.OwnerOfAttr(n.cat, attr)
			if owner != n.cfg.Self && ms.missing[owner] && !seen[owner] {
				seen[owner] = true
				peers = append(peers, owner)
			}
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	return peers
}

// predAttrs lists the attributes a predicate touches.
func predAttrs(p engine.Pred) []engine.AttrID {
	if p.IsJoin() {
		return []engine.AttrID{p.Left, p.Right}
	}
	return []engine.AttrID{p.Attr}
}

// errorReason compresses a replication error to the short cause recorded
// in provenance: sentinel errors keep their name, context errors map to
// "deadline"/"canceled" (a socket read past the fetch deadline, which fails
// with os.ErrDeadlineExceeded, is a deadline too), anything else becomes
// "fetch-failed".
func errorReason(err error) string {
	switch {
	case errors.Is(err, ErrPartitioned):
		return "partitioned"
	case errors.Is(err, errStaleFrame):
		return "stale-epoch"
	case errors.Is(err, ErrUnknownPeer):
		return "unknown-peer"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, os.ErrDeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "fetch-failed"
	}
}

// Counters is a point-in-time snapshot of the node's cluster state for
// gauges and reports.
type Counters struct {
	Nodes            int    // membership size
	PeersAdmitted    int    // peers with an admitted replica
	PeersMissing     int    // peers with no admitted replica
	Epoch            uint64 // this node's rebuild epoch
	LocalGeneration  uint64 // local shard content generation
	MergedGeneration uint64 // merged pool content generation
	Replications     int64  // admitted peer frames
	ReplFailures     int64  // failed Replicate calls
	FenceRejections  int64  // frames refused by the generation vector
	Degraded         int64  // estimates degraded by a shard not yet admitted
}

// Counters returns the snapshot.
func (n *Node) Counters() Counters {
	ms := n.cur.Load()
	n.mu.Lock()
	admitted := len(n.replicas)
	localGen := n.local.Generation()
	n.mu.Unlock()
	return Counters{
		Nodes:            len(n.ring.Nodes()),
		PeersAdmitted:    admitted,
		PeersMissing:     len(ms.missing),
		Epoch:            n.epoch.Load(),
		LocalGeneration:  localGen,
		MergedGeneration: ms.pool.Generation(),
		Replications:     n.replications.Load(),
		ReplFailures:     n.replFailures.Load(),
		FenceRejections:  n.vec.Rejected(),
		Degraded:         n.degraded.Load(),
	}
}
