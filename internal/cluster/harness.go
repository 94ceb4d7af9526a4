package cluster

import (
	"context"
	"fmt"

	"condsel/internal/engine"
	"condsel/internal/sit"
)

// Harness is the in-process multi-node cluster tests and benches drive
// through partition → heal → re-replicate → fence arcs: N nodes over one
// MemTransport, each owning its ring shard of a full statistics pool.
type Harness struct {
	Cat       *engine.Catalog
	Full      *sit.Pool
	Ring      *Ring
	Transport *MemTransport
	IDs       []NodeID
	Nodes     map[NodeID]*Node
}

// HarnessIDs returns the conventional membership node-0..node-(n-1).
func HarnessIDs(n int) []NodeID {
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("node-%d", i))
	}
	return ids
}

// NewHarness shards full across n nodes and wires them to a shared
// MemTransport. The template config supplies tuning (fetch deadline,
// cache, model); Self and Nodes are filled in per node.
func NewHarness(cat *engine.Catalog, full *sit.Pool, n int, template Config) (*Harness, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: harness needs at least one node")
	}
	ids := HarnessIDs(n)
	ring, err := NewRing(ids, template.VNodes)
	if err != nil {
		return nil, err
	}
	tr := NewMemTransport()
	h := &Harness{
		Cat: cat, Full: full, Ring: ring, Transport: tr,
		IDs: ids, Nodes: make(map[NodeID]*Node, n),
	}
	for _, id := range ids {
		cfg := template
		cfg.Self = id
		cfg.Nodes = ids
		node, err := NewNode(cfg, cat, ring.Shard(full, id), tr)
		if err != nil {
			return nil, err
		}
		tr.Register(node)
		h.Nodes[id] = node
	}
	return h, nil
}

// WarmAll replicates every peer into every node, returning the first error.
func (h *Harness) WarmAll(ctx context.Context) error {
	var first error
	for _, id := range h.IDs {
		if err := h.Nodes[id].WarmUp(ctx); err != nil && first == nil {
			first = fmt.Errorf("node %s: %w", id, err)
		}
	}
	return first
}

// Node returns the node by index in ID order.
func (h *Harness) Node(i int) *Node { return h.Nodes[h.IDs[i]] }
