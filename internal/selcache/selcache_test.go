package selcache

import (
	"fmt"
	"math/rand"
	"strings"
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

// TestEvictIf: predicate-driven eviction removes exactly the matching
// entries across shards, reports the count, and leaves the rest servable.
func TestEvictIf(t *testing.T) {
	t.Parallel()
	c := New[string, int](256, HashString)
	for i := 0; i < 40; i++ {
		gen := "g1"
		if i%2 == 0 {
			gen = "g2"
		}
		c.Put(fmt.Sprintf("model|%s|k%d", gen, i), i)
	}
	n := c.EvictIf(func(key string) bool { return strings.Contains(key, "|g1|") })
	if n != 20 {
		t.Fatalf("EvictIf dropped %d entries, want 20", n)
	}
	if c.Len() != 20 {
		t.Fatalf("Len = %d after eviction, want 20", c.Len())
	}
	for i := 0; i < 40; i++ {
		_, ok := c.Get(fmt.Sprintf("model|g1|k%d", i))
		if i%2 != 0 && ok {
			t.Fatalf("g1 entry k%d survived EvictIf", i)
		}
	}
	for i := 0; i < 40; i += 2 {
		if v, ok := c.Get(fmt.Sprintf("model|g2|k%d", i)); !ok || v != i {
			t.Fatalf("g2 entry k%d lost by EvictIf: %v %v", i, v, ok)
		}
	}
	// Nothing matches: no-op, zero count.
	if n := c.EvictIf(func(string) bool { return false }); n != 0 {
		t.Fatalf("no-match EvictIf dropped %d entries", n)
	}
}

// TestEvictIfConcurrent: EvictIf racing Put/Get neither corrupts the cache
// nor loses unrelated entries (run under -race).
func TestEvictIfConcurrent(t *testing.T) {
	t.Parallel()
	c := New[string, int](512, HashString)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("w|g%d|k%d", g%2, i)
				switch i % 3 {
				case 0:
					c.Put(key, i)
				case 1:
					c.Get(key)
				default:
					c.EvictIf(func(k string) bool { return strings.Contains(k, "|g0|") })
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > st.Capacity {
		t.Fatalf("entries %d exceed capacity %d after concurrent EvictIf", st.Entries, st.Capacity)
	}
}

// TestEvictIfKeepsRecency: compacting a shard moves survivors to new slots
// but keeps their recency, so the next eviction still takes the least
// recently used survivor rather than whichever slot moved.
func TestEvictIfKeepsRecency(t *testing.T) {
	t.Parallel()
	c := NewSharded[string, int](4, 1, HashString)
	for i, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, i)
	}
	c.Get("a")
	c.Get("c") // recency, oldest first: b, d, a, c
	if n := c.EvictIf(func(k string) bool { return k == "b" }); n != 1 {
		t.Fatalf("EvictIf dropped %d entries, want 1", n)
	}
	c.Put("e", 4) // fills the freed slot, no eviction
	c.Put("f", 5) // evicts d, the least recently used survivor
	if _, ok := c.Get("d"); ok {
		t.Fatalf("d, the least recently used survivor, was not evicted")
	}
	for _, k := range []string{"a", "c", "e", "f"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s was evicted ahead of the least recently used survivor", k)
		}
	}
	if ev := c.Stats().Evictions; ev != 2 {
		t.Fatalf("evictions = %d, want 2", ev)
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
// style generation bumps: a writer advances the current generation and
// EvictIf-retires all older ones, while readers Get/Put entries of whatever
// generation is current. Values encode their key's generation, so any
// cross-generation aliasing — a stale-generation value served for a newer
// key — is detected immediately; and after the final retirement sweep no
// dead-generation entry may remain resident. Run under -race this is also
// the proof that in-place compaction never races a read.
func TestGenerationRetirementStress(t *testing.T) {
	t.Parallel()
	c := New[genKey, uint64](1<<10, genKeyHash)
	value := func(k genKey) uint64 { return k.gen*1_000_000 + uint64(k.k) }

	var cur atomic.Uint64
	cur.Store(1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for {
				select {
				case <-stop:
					return
				default:
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
	for bump := 0; bump < 200; bump++ {
		next := cur.Add(1)
		// Retire everything older than the new generation, exactly as the
		// lifecycle manager does after an epoch hot-swap. Readers may race
		// in a Put of a just-retired generation; the next sweep gets it.
		c.EvictIf(func(k genKey) bool { return k.gen < next })
	}
	close(stop)
	wg.Wait()
	final := cur.Load()
	if n := c.EvictIf(func(k genKey) bool { return k.gen < final }); n > 16 {
		// At most one straggler Put per reader goroutine can slip in after
		// the last in-loop sweep.
		t.Fatalf("%d dead-generation entries survived the retirement sweeps", n)
	}
	residual := 0
	c.EvictIf(func(k genKey) bool {
		if k.gen < final {
			residual++
		}
		return false
	})
	if residual != 0 {
		t.Fatalf("%d dead-generation entries resident after quiescent sweep", residual)
	}
}
