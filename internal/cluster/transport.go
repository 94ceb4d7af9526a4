package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"condsel/internal/faults"
)

// Transport moves shard frames between nodes. Implementations must honor
// the context (deadline and cancellation) and may fail with any error; only
// replication calls Fetch, and a failed fetch is retried at the next
// ReplicateLoop tick while estimates that need the shard answer degraded.
type Transport interface {
	// Fetch asks peer for its current shard frame on behalf of from.
	Fetch(ctx context.Context, from, peer NodeID) (*Frame, error)
}

// Sentinel transport errors. They surface (through errorReason) in the
// `remote-shard-unavailable: <peer>/<cause>` provenance, so they are short
// and stable.
var (
	ErrPartitioned = errors.New("partitioned")
	ErrUnknownPeer = errors.New("unknown-peer")
)

// MemTransport is the in-process transport of the multi-node harness:
// every fetch round-trips through the real wire codec (encode on the
// serving node, decode on the caller) so torn streams and checksum damage
// exercise the exact bytes a TCP link would carry. Tests drive failure arcs
// two ways: explicit Partition/Heal calls for deterministic sequencing, and
// the schedule-driven faults points (NetPartition, NetSlowPeer,
// NetTruncatedStream, NetStaleEpoch, NetDuplicateDelivery) for
// probabilistic soak-style runs.
type MemTransport struct {
	mu    sync.Mutex
	nodes map[NodeID]*Node
	cut   map[[2]NodeID]bool // symmetric partition set, normalized pairs
	// oldest and last retain served frame bytes per peer: oldest feeds the
	// stale-epoch replay fault, last the duplicate-delivery fault.
	oldest map[NodeID][]byte
	last   map[NodeID][]byte
}

// NewMemTransport returns an empty in-process transport.
func NewMemTransport() *MemTransport {
	return &MemTransport{
		nodes:  make(map[NodeID]*Node),
		cut:    make(map[[2]NodeID]bool),
		oldest: make(map[NodeID][]byte),
		last:   make(map[NodeID][]byte),
	}
}

// Register attaches a node to the transport.
func (t *MemTransport) Register(n *Node) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes[n.ID()] = n
}

func pairKey(a, b NodeID) [2]NodeID {
	if b < a {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// Partition severs the (symmetric) link between a and b.
func (t *MemTransport) Partition(a, b NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cut[pairKey(a, b)] = true
}

// Heal restores the link between a and b.
func (t *MemTransport) Heal(a, b NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.cut, pairKey(a, b))
}

// HealAll restores every link.
func (t *MemTransport) HealAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cut = make(map[[2]NodeID]bool)
}

// Fetch implements Transport.
func (t *MemTransport) Fetch(ctx context.Context, from, peer NodeID) (*Frame, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.mu.Lock()
	target, ok := t.nodes[peer]
	severed := t.cut[pairKey(from, peer)]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPeer, peer)
	}

	fs := faults.Active()
	if severed || fs.Fire(faults.NetPartition) {
		return nil, ErrPartitioned
	}
	if fs.Fire(faults.NetSlowPeer) {
		fs.Sleep(ctx)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	frame, err := target.ShardFrame()
	if err != nil {
		return nil, err
	}
	wire, err := EncodeFrame(frame)
	if err != nil {
		return nil, err
	}

	t.mu.Lock()
	if _, ok := t.oldest[peer]; !ok {
		t.oldest[peer] = wire
	}
	if fs.Fire(faults.NetStaleEpoch) {
		wire = t.oldest[peer]
	} else if prev, ok := t.last[peer]; ok && fs.Fire(faults.NetDuplicateDelivery) {
		wire = prev
	}
	t.last[peer] = wire
	t.mu.Unlock()

	if fs.Fire(faults.NetTruncatedStream) {
		wire = wire[:len(wire)/2]
	}
	return ReadFrame(bytes.NewReader(wire))
}
