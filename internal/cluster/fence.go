package cluster

import (
	"fmt"
	"sort"
	"sync"
)

// Epoch fencing. Every node stamps its shard with a (Epoch, Gen) pair:
// the epoch counts full local rebuilds (a restart, a from-scratch pool
// reconstruction) and the generation is the sit.Pool content stamp within
// that epoch. A frame from a peer is admitted only when its stamp is
// strictly newer than the last admitted one, so a replayed or duplicated
// frame — however it arrives: retried fetch, partitioned-then-healed link
// delivering queued traffic, a proxy re-sending — can never roll a replica
// backwards or bump a merged-pool generation.
//
// The ordering is lexicographic: epochs dominate generations, because
// generations are only comparable within one epoch (a rebuilt pool restarts
// content stamps from whatever the process counter says). All comparisons
// go through Stamp.Newer — raw < on epoch values fences nothing, so Epoch
// is a struct that does not compile under < or an integer conversion.

// NodeID names one cluster member. IDs are compared as opaque strings and
// hashed onto the ring; they must be unique and stable across restarts.
type NodeID string

// Epoch counts full local rebuilds of a node's shard. It must be strictly
// increasing across restarts too — generations reset with the process, so
// a reused epoch strands the node behind the fence; EpochFile persists it
// as a durable restart counter. Epochs are ordered only by Stamp.Newer: a
// raw comparison ignores the generation half and silently accepts replays,
// so the counter is unexported and == is the only operator that compiles.
type Epoch struct{ n uint64 }

// EpochOf returns the epoch with rebuild count n.
func EpochOf(n uint64) Epoch { return Epoch{n} }

// Count returns the epoch's rebuild count, for the wire codec, logs and
// reports. Order stamps with Stamp.Newer, not by comparing counts.
func (e Epoch) Count() uint64 { return e.n }

// Stamp is the fencing token a node attaches to every frame it ships: its
// current epoch and the shard pool's content generation within it.
type Stamp struct {
	Epoch Epoch
	Gen   uint64
}

// Newer reports whether s is strictly newer than o in fencing order:
// a higher epoch always wins, and within one epoch a higher generation
// wins. Equal stamps are not newer — re-delivering the admitted frame is a
// no-op, not progress. This method is the single sanctioned epoch
// comparison in the module.
func (s Stamp) Newer(o Stamp) bool {
	if s.Epoch != o.Epoch {
		return s.Epoch.n > o.Epoch.n
	}
	return s.Gen > o.Gen
}

// IsZero reports whether the stamp is the zero value (nothing admitted yet).
func (s Stamp) IsZero() bool { return s == Stamp{} }

// String renders the stamp as e<epoch>/g<gen> for provenance and logs.
func (s Stamp) String() string { return fmt.Sprintf("e%d/g%d", s.Epoch.n, s.Gen) }

// GenVector is the cluster-wide generation vector: the newest admitted
// stamp per peer. It is the fence — Admit refuses anything not strictly
// newer — and the invalidation signal: when Admit moves a peer's stamp
// forward, the caller publishes a new merged pool under a new generation
// (Node.installLocked), so no estimate reads a selectivity cached against
// the peer's previous shard again; the cache's LRU ages those entries out.
type GenVector struct {
	mu       sync.Mutex
	admitted map[NodeID]Stamp
	rejected int64 // stale frames refused by the fence
}

// NewGenVector returns an empty vector.
func NewGenVector() *GenVector {
	return &GenVector{admitted: make(map[NodeID]Stamp)}
}

// Admit installs the stamp for the node when it is strictly newer than the
// currently admitted one and reports whether it did. A refused stamp bumps
// the rejection counter and changes nothing else — a stale-epoch replay
// must not move any generation.
func (v *GenVector) Admit(n NodeID, s Stamp) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if cur, ok := v.admitted[n]; ok && !s.Newer(cur) {
		v.rejected++
		return false
	}
	v.admitted[n] = s
	return true
}

// Get returns the admitted stamp for the node (zero when none).
func (v *GenVector) Get(n NodeID) Stamp {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.admitted[n]
}

// Rejected returns how many frames the fence has refused.
func (v *GenVector) Rejected() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.rejected
}

// Snapshot returns the vector as a deterministic (NodeID-sorted) slice of
// entries, for logs and the cluster gauges.
func (v *GenVector) Snapshot() []VectorEntry {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]VectorEntry, 0, len(v.admitted))
	for n, s := range v.admitted {
		out = append(out, VectorEntry{Node: n, Stamp: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// VectorEntry is one (node, stamp) pair of a GenVector snapshot.
type VectorEntry struct {
	Node  NodeID
	Stamp Stamp
}
