// Package selcache provides a sharded, bounded, concurrency-safe LRU cache
// for cross-query selectivity reuse.
//
// The getSelectivity dynamic program (internal/core) memoizes per query run,
// so every sub-query of one query is estimated once — but the memo dies with
// the run. Workloads repeat predicate sets across queries (shared join
// sub-expressions, repeated filters), and for a fixed SIT pool and error
// model the chosen decomposition of a predicate set is a pure function of
// its structural signature. A process-wide cache keyed by
//
//	(error-model name, pool generation, packed predicate-set signature)
//
// therefore lets a run seed its memo from earlier queries and publish its
// own results back, without ever returning a stale or mismatched entry: the
// pool generation (sit.Pool.Generation) changes on every pool mutation and
// is unique across pools, so entries built against other pools or older pool
// contents simply never match.
//
// # Concurrency
//
// Each shard is updated in place under a sync.RWMutex. It keeps its entries
// in a dense slot array and an index map from key to slot. Get takes the
// read lock, probes the index, stamps the slot's atomic recency tick and
// copies the value out; concurrent readers of one shard never exclude each
// other. Put takes the write lock and stores into an existing slot, a fresh
// one, or — when the shard is full — the least recently used entry's slot,
// so a Put in steady state neither copies the shard nor allocates. EvictIf
// compacts the slot array in place. Slot arrays grow lazily, doubling up to
// the shard's capacity, so a large cache that is never filled reserves
// little memory.
//
// The trade is deliberate: a hit pays for a shared lock, which a
// copy-on-write map would spare it, and in exchange a Put neither copies
// nor allocates. Evicting Puts dominate a stream of distinct queries, and
// there the trade nearly doubles served throughput; on a Get-bound stream of
// repeated queries it measures as no change (DESIGN.md, "In-place cache
// shards").
//
// Recency is a global atomic clock: every access stamps the entry with a
// fresh, strictly increasing tick, and a full shard evicts the entry with
// the minimum tick, found by scanning the slot array — exact LRU per shard,
// deterministic because ticks are unique. Counters (hits, misses,
// evictions) are atomic and exposed via Stats.
package selcache

import (
	"sync"
	"sync/atomic"

	"condsel/internal/faults"
)

// DefaultShards is the minimum shard count New selects. More shards are
// added as capacity grows so each shard's LRU victim scan stays short.
const DefaultShards = 16

// targetShardCap is the per-shard entry count New aims for: small enough
// that a full shard's victim scan touches at most a few KiB.
const targetShardCap = 64

// minSlots is the slot array's first allocation; it then doubles up to the
// shard's capacity.
const minSlots = 8

// maxAutoShards caps New's automatic shard count.
const maxAutoShards = 4096

// Cache is a sharded, bounded LRU mapping keys of comparable type K to
// values of type V, hashed for shard selection by a caller-supplied
// function. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	shards []shard[K, V]
	hash   func(K) uint64

	clock     atomic.Uint64 // global recency ticks, strictly increasing
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// shard is one lock domain. index and slots describe the same entries:
// index[slots[i].key] == i for every i < len(slots).
type shard[K comparable, V any] struct {
	mu    sync.RWMutex
	index map[K]int32
	slots []slot[K, V]
	cap   int // fixed at construction
}

// slot is one cached entry. key and val change only under the shard's
// write lock; tick is also stamped by readers holding the read lock, hence
// atomic. Slots are never copied whole (the atomic forbids it): moves copy
// key and val and carry the tick over through Load and Store.
type slot[K comparable, V any] struct {
	key  K
	val  V
	tick atomic.Uint64
}

// New returns a cache holding at most capacity entries, hashed by hash,
// with the shard count chosen automatically (~64 entries per shard, at
// least DefaultShards, at most one shard per entry). A capacity <= 0
// defaults to 4096.
func New[K comparable, V any](capacity int, hash func(K) uint64) *Cache[K, V] {
	if capacity <= 0 {
		capacity = 4096
	}
	shards := (capacity + targetShardCap - 1) / targetShardCap
	if shards < DefaultShards {
		shards = DefaultShards
	}
	if shards > maxAutoShards {
		shards = maxAutoShards
	}
	return NewSharded[K, V](capacity, shards, hash)
}

// NewSharded returns a cache with an explicit shard count. The capacity is
// exact: it is split as evenly as possible, the first capacity%shards
// shards taking one entry more than the rest.
func NewSharded[K comparable, V any](capacity, shards int, hash func(K) uint64) *Cache[K, V] {
	if capacity <= 0 {
		capacity = 4096
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > capacity {
		shards = capacity
	}
	c := &Cache[K, V]{shards: make([]shard[K, V], shards), hash: hash}
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = capacity / shards
		if i < capacity%shards {
			s.cap++
		}
		s.index = make(map[K]int32)
	}
	return c
}

// HashString is a 64-bit FNV-1a string hash, exported for callers composing
// shard hashes over string-bearing keys.
func HashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// HashUint64 mixes a 64-bit integer (splitmix64 finalizer), exported for
// callers composing shard hashes over integer-bearing keys.
func HashUint64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashCombine folds two 64-bit hashes into one with the golden-ratio
// mixer, exported for callers composing multi-part keys (the cluster ring
// derives virtual-node points from a node hash combined with the replica
// index this way). Non-commutative: order matters, as it should for
// (node, index) pairs.
func HashCombine(a, b uint64) uint64 {
	return HashUint64(a ^ (b*0x9e3779b97f4a7c15 + 0x517cc1b727220a95))
}

func (c *Cache[K, V]) shardFor(key K) *shard[K, V] {
	return &c.shards[c.hash(key)%uint64(len(c.shards))]
}

// Get returns the cached value for key and whether it was present, marking
// the entry most recently used on a hit. It holds the shard's read lock, so
// lookups in one shard run concurrently with each other and wait only for a
// writer. When the fault harness's CacheEvictStorm point fires, every entry
// is dropped ahead of the lookup — correctness layers above must treat the
// cache as advisory, and this is the hook that proves they do.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if faults.Active().Fire(faults.CacheEvictStorm) {
		c.EvictAll()
	}
	s := c.shardFor(key)
	s.mu.RLock()
	i, ok := s.index[key]
	if !ok {
		s.mu.RUnlock()
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	e := &s.slots[i]
	e.tick.Store(c.clock.Add(1))
	val := e.val
	s.mu.RUnlock()
	c.hits.Add(1)
	return val, true
}

// Put stores the value under key, evicting the shard's least recently used
// entry when the shard is full. Storing an existing key refreshes its value
// and recency. The shard is updated in place under its write lock: the new
// entry takes a free slot or the victim's, and only the slot array's lazy
// growth allocates.
func (c *Cache[K, V]) Put(key K, val V) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.index[key]; ok {
		e := &s.slots[i]
		e.val = val
		e.tick.Store(c.clock.Add(1))
		return
	}
	var i int
	if len(s.slots) < s.cap {
		i = s.push()
	} else {
		i = s.victim()
		delete(s.index, s.slots[i].key)
		c.evictions.Add(1)
	}
	e := &s.slots[i]
	e.key, e.val = key, val
	e.tick.Store(c.clock.Add(1))
	s.index[key] = int32(i)
}

// push appends one zero slot, growing the array by doubling (from minSlots,
// up to the shard's capacity) when it is full, and returns its position.
// The caller holds the write lock and has checked len(s.slots) < s.cap.
func (s *shard[K, V]) push() int {
	n := len(s.slots)
	if n == cap(s.slots) {
		grown := make([]slot[K, V], n, min(max(2*n, minSlots), s.cap))
		copy(grown, s.slots)
		s.slots = grown
	}
	s.slots = s.slots[:n+1]
	return n
}

// victim returns the position of the shard's least recently used entry:
// the minimum tick, unique because ticks are. The caller holds the write
// lock and the shard is non-empty.
func (s *shard[K, V]) victim() int {
	v, minTick := 0, ^uint64(0)
	for i := range s.slots {
		if t := s.slots[i].tick.Load(); t < minTick {
			v, minTick = i, t
		}
	}
	return v
}

// compact drops every entry whose key satisfies drop, moving survivors down
// with their ticks so recency order is unchanged, and zeroes the vacated
// tail so it pins no values. It returns how many entries were dropped. The
// caller holds the write lock.
func (s *shard[K, V]) compact(drop func(key K) bool) int {
	w := 0
	for r := range s.slots {
		e := &s.slots[r]
		if drop(e.key) {
			delete(s.index, e.key)
			continue
		}
		if w != r {
			d := &s.slots[w]
			d.key, d.val = e.key, e.val
			d.tick.Store(e.tick.Load())
			s.index[d.key] = int32(w)
		}
		w++
	}
	n := len(s.slots) - w
	clear(s.slots[w:])
	s.slots = s.slots[:w]
	return n
}

// Len returns the current number of cached entries across all shards.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.slots)
		s.mu.RUnlock()
	}
	return n
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Shards    int
	Capacity  int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the cache counters and occupancy.
func (c *Cache[K, V]) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
		Shards:    len(c.shards),
	}
	for i := range c.shards {
		st.Capacity += c.shards[i].cap
	}
	return st
}

// EvictIf drops every entry whose key satisfies drop, counting them as
// evictions, and returns how many were dropped. The statistics lifecycle
// manager uses it after an epoch hot-swap to reclaim the capacity held by
// dead-generation entries (their generation-stamped keys can never be
// requested again, but untouched they would linger until LRU churn pushes
// them out). Each shard is compacted in place under its write lock — drop
// is called exactly once per resident key — and the survivors keep their
// recency ticks, so later evictions still pick the true LRU entry.
func (c *Cache[K, V]) EvictIf(drop func(key K) bool) int {
	dropped := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n := s.compact(drop)
		s.mu.Unlock()
		c.evictions.Add(int64(n))
		dropped += n
	}
	return dropped
}

// EvictAll drops every entry while counting them as evictions; unlike Reset
// the hit/miss counters survive. It models an operational cache flush (or an
// injected eviction storm): subsequent lookups miss and recompute, nothing
// more. Slot arrays keep their capacity.
func (c *Cache[K, V]) EvictAll() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n := len(s.slots)
		clear(s.index)
		clear(s.slots)
		s.slots = s.slots[:0]
		s.mu.Unlock()
		c.evictions.Add(int64(n))
	}
}

// Reset drops every entry and zeroes the counters.
func (c *Cache[K, V]) Reset() {
	c.EvictAll()
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}
