package selcache

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetPutBasics(t *testing.T) {
	t.Parallel()
	c := New[string, int](64, HashString)
	if _, ok := c.Get("a"); ok {
		t.Fatalf("empty cache reported a hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatalf("Get(b) = %v, %v", v, ok)
	}
	c.Put("a", 10) // refresh
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("refreshed value = %v, want 10", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	t.Parallel()
	// One shard makes the LRU order observable.
	c := NewSharded[string, int](2, 1, HashString)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")    // a most recent
	c.Put("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatalf("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatalf("recently used a was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatalf("newest entry c missing")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestBoundedUnderChurn(t *testing.T) {
	t.Parallel()
	const capacity = 100
	c := New[string, int](capacity, HashString)
	for i := 0; i < 10*capacity; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if n := c.Len(); n > c.Stats().Capacity {
		t.Fatalf("cache grew to %d entries, capacity %d", n, c.Stats().Capacity)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under churn: %+v", st)
	}
}

// TestCapacityExact: the shards' capacities sum to exactly the requested
// capacity, and a cache churned far past it holds exactly that many entries.
func TestCapacityExact(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ capacity, shards int }{
		{1, 1},
		{100, 16},
		{1000, 16},
		{4096, 64},
		{5000, 79},
		{1 << 14, 256},
	} {
		c := New[uint64, uint64](tc.capacity, HashUint64)
		st := c.Stats()
		if st.Capacity != tc.capacity || st.Shards != tc.shards {
			t.Fatalf("New(%d): capacity %d over %d shards, want %d over %d",
				tc.capacity, st.Capacity, st.Shards, tc.capacity, tc.shards)
		}
		lo, hi := c.shards[0].cap, c.shards[0].cap
		for i := range c.shards {
			lo, hi = min(lo, c.shards[i].cap), max(hi, c.shards[i].cap)
		}
		if hi-lo > 1 {
			t.Fatalf("New(%d): shard capacities range %d..%d, want an even split", tc.capacity, lo, hi)
		}
		for k := uint64(0); k < uint64(4*tc.capacity); k++ {
			c.Put(k, k)
		}
		if n := c.Len(); n != tc.capacity {
			t.Fatalf("New(%d): %d entries after churn, want exactly %d", tc.capacity, n, tc.capacity)
		}
	}
}

func TestTinyCapacityRoundsUp(t *testing.T) {
	t.Parallel()
	c := New[string, string](1, HashString)
	c.Put("x", "v")
	if v, ok := c.Get("x"); !ok || v != "v" {
		t.Fatalf("tiny cache lost its entry: %v %v", v, ok)
	}
}

func TestReset(t *testing.T) {
	t.Parallel()
	c := New[string, int](16, HashString)
	c.Put("a", 1)
	c.Get("a")
	c.Get("zz")
	c.Reset()
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("stats after reset: %+v", st)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatalf("entry survived reset")
	}
}

// TestConcurrentMixed hammers one cache from many goroutines; run under
// -race this is the package's data-race proof. Values are derived from keys
// so every hit can be validated.
func TestConcurrentMixed(t *testing.T) {
	t.Parallel()
	const seed = 7 // constant seed: failures reproduce with the logged value
	c := New[string, int](256, HashString)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)))
			for i := 0; i < 2000; i++ {
				k := rng.Intn(512)
				key := fmt.Sprintf("k%d", k)
				if rng.Intn(2) == 0 {
					c.Put(key, k)
				} else if v, ok := c.Get(key); ok && v != k {
					t.Errorf("seed %d: Get(%s) = %d, want %d", seed, key, v, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("seed %d: entries %d exceed capacity %d", seed, st.Entries, st.Capacity)
	}
}

// TestSlotsGrowLazily: a shard's slot array starts empty and doubles, from
// minSlots, up to exactly the shard's capacity — a large cache that is never
// filled does not reserve its full capacity.
func TestSlotsGrowLazily(t *testing.T) {
	t.Parallel()
	c := NewSharded[uint64, uint64](100, 1, HashUint64)
	s := &c.shards[0]
	if cap(s.slots) != 0 {
		t.Fatalf("new shard reserved %d slots, want 0", cap(s.slots))
	}
	var caps []int
	for k := uint64(0); k < 200; k++ {
		c.Put(k, k)
		if n := cap(s.slots); len(caps) == 0 || caps[len(caps)-1] != n {
			caps = append(caps, n)
		}
	}
	if got, want := fmt.Sprint(caps), "[8 16 32 64 100]"; got != want {
		t.Fatalf("slot array capacities %s, want %s", got, want)
	}
}

// TestPutFullShardZeroAllocs: once a shard is full, a Put that evicts
// reuses the victim's slot in place and allocates nothing.
func TestPutFullShardZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are only meaningful without -race")
	}
	const capacity = 64
	c := NewSharded[uint64, float64](capacity, 1, HashUint64)
	k := uint64(0)
	for ; k < capacity; k++ {
		c.Put(k, float64(k))
	}
	allocs := testing.AllocsPerRun(10_000, func() {
		c.Put(k, float64(k))
		k++
	})
	if allocs != 0 {
		t.Fatalf("evicting Put allocated %.1f objects/op, want 0", allocs)
	}
	if st := c.Stats(); st.Entries != capacity || st.Evictions == 0 {
		t.Fatalf("stats after churn: %+v", st)
	}
}

// BenchmarkGet measures a hit on a warm cache whose hot set fits every
// shard, so no key has been evicted.
func BenchmarkGet(b *testing.B) {
	const hot = 2048
	c := New[uint64, float64](2*hot, HashUint64)
	for k := uint64(0); k < hot; k++ {
		c.Put(k, float64(k))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(uint64(i) % hot); !ok {
			b.Fatal("miss on a warm key")
		}
	}
}

// BenchmarkPutEvict measures a Put into a full cache, each one evicting.
func BenchmarkPutEvict(b *testing.B) {
	const capacity = 4096
	c := New[uint64, float64](capacity, HashUint64)
	for k := uint64(0); k < capacity; k++ {
		c.Put(k, float64(k))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(capacity+uint64(i), float64(i))
	}
}

// genKey is a generation-stamped structural key, mirroring how core.CacheKey
// carries the pool generation as an integer field.
type genKey struct {
	gen uint64
	k   int
}

func genKeyHash(k genKey) uint64 {
	return HashUint64(k.gen*0x9e3779b97f4a7c15 + uint64(k.k))
}

// TestGenerationRetirementStress interleaves 16 readers with lifecycle-
// style generation bumps: every 256th operation advances the current
// generation, and readers Get/Put entries of whatever generation is
// current. Nothing purges the retired generations; their entries age out
// through the LRU. Values encode their key's generation, so any
// cross-generation aliasing — a stale-generation value served for a newer
// key — is detected immediately. Run under -race this is also the proof
// that in-place eviction never races a read.
func TestGenerationRetirementStress(t *testing.T) {
	t.Parallel()
	const capacity = 1 << 10
	c := New[genKey, uint64](capacity, genKeyHash)
	value := func(k genKey) uint64 { return k.gen*1_000_000 + uint64(k.k) }

	var cur, ops atomic.Uint64
	cur.Store(1)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 4000; i++ {
				if ops.Add(1)%256 == 0 {
					cur.Add(1)
				}
				k := genKey{gen: cur.Load(), k: rng.Intn(64)}
				if v, ok := c.Get(k); ok {
					if v != value(k) {
						t.Errorf("Get(%+v) served %d, want %d: stale/aliased generation value", k, v, value(k))
						return
					}
				} else {
					c.Put(k, value(k))
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Evictions == 0 || st.Entries > capacity {
		t.Fatalf("after %d generations: %+v, want hits, evictions and at most %d entries", cur.Load(), st, capacity)
	}
}

// TestRetiredEntriesLRUEquivalence pins why nothing purges a retired
// generation: in an exact per-shard LRU, entries that nothing touches
// after a generation bump are each shard's first victims, so every
// lookup of the live generation hits or misses exactly as in a cache that
// never held them. Two caches take the same stream of random live
// Get-or-Put steps; one starts full of retired-generation entries, the
// other empty. Their outcomes must agree step by step; only Len and where
// Evictions counts the retired entries differ.
func TestRetiredEntriesLRUEquivalence(t *testing.T) {
	t.Parallel()
	const (
		capacity = 1 << 10
		retired  = 4 * capacity
		keys     = 3 * capacity
		steps    = 200_000
	)
	value := func(k genKey) uint64 { return k.gen*1_000_000 + uint64(k.k) }
	dirty := New[genKey, uint64](capacity, genKeyHash)
	clean := New[genKey, uint64](capacity, genKeyHash)
	for k := 0; k < retired; k++ {
		key := genKey{gen: 1, k: k}
		dirty.Put(key, value(key))
	}
	if n := dirty.Len(); n != capacity {
		t.Fatalf("pre-filled cache holds %d retired entries, want %d", n, capacity)
	}
	prefill := dirty.Stats().Evictions

	rng := rand.New(rand.NewSource(7))
	hits := 0
	for i := 0; i < steps; i++ {
		key := genKey{gen: 2, k: rng.Intn(keys)}
		vd, okd := dirty.Get(key)
		vc, okc := clean.Get(key)
		if okd != okc || vd != vc {
			t.Fatalf("step %d: Get(%+v) = (%d, %v) beside retired entries, (%d, %v) without", i, key, vd, okd, vc, okc)
		}
		if okd {
			hits++
			continue
		}
		dirty.Put(key, value(key))
		clean.Put(key, value(key))
	}
	sd, sc := dirty.Stats(), clean.Stats()
	if sd.Hits != sc.Hits || sd.Misses != sc.Misses || hits == 0 || hits == steps {
		t.Fatalf("beside retired entries %+v, without %+v (%d hits)", sd, sc, hits)
	}
	// The stream filled the cache, so every retired entry was evicted, each
	// one counted once.
	if sd.Entries != capacity || sc.Entries != capacity || sd.Evictions-prefill != sc.Evictions+capacity {
		t.Fatalf("beside retired entries %+v (%d evicted while pre-filling), without %+v", sd, prefill, sc)
	}
}
