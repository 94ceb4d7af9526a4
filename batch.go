package condsel

import (
	"context"
	"fmt"
	"sync"

	"condsel/internal/core"
)

// SelCache is a sharded, bounded, concurrency-safe cache of getSelectivity
// results shared across queries (and across Estimators over the same
// database). Entries are keyed by the error-model name, the pool's content
// generation and the canonical predicate-set signature, so a cache can be
// attached to several estimators — even ones using different pools or
// models — without ever serving a mismatched entry. Estimates with a cache
// attached are bit-identical to estimates without one.
//
// A SelCache must not be shared across databases: predicate signatures are
// expressed in attribute IDs, which restart from zero in every catalog.
// (Pool generations make collisions across databases in one process
// impossible anyway, since generations are process-unique — the rule guards
// intent, not correctness.)
type SelCache struct {
	c *core.SelCacheStore
}

// NewSelCache returns a cache bounded to roughly maxEntries results
// (capacity is split evenly over the internal shards). maxEntries <= 0
// selects a default of 4096.
func NewSelCache(maxEntries int) *SelCache {
	return &SelCache{c: core.NewSelCache(maxEntries)}
}

// CacheStats is a point-in-time snapshot of a SelCache's counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Capacity  int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the cache's counters.
func (c *SelCache) Stats() CacheStats {
	s := c.c.Stats()
	return CacheStats{
		Hits:      s.Hits,
		Misses:    s.Misses,
		Evictions: s.Evictions,
		Entries:   s.Entries,
		Capacity:  s.Capacity,
	}
}

// Reset drops every cached entry and zeroes the counters.
func (c *SelCache) Reset() { c.c.Reset() }

// UseCache attaches the cross-query selectivity cache to the estimator and
// returns the estimator for chaining. Subsequent estimation calls seed their
// per-query memo from the cache and publish fresh results back. Passing nil
// detaches any cache. Attach or detach before estimation starts, not
// concurrently with it. The cache is attached to this estimator's own copy
// of its configuration, so no other estimator — another Manager.Estimator
// of the same epoch, say — changes cache with it.
func (e *Estimator) UseCache(c *SelCache) *Estimator {
	est := *e.est
	est.Cache = nil
	if c != nil {
		est.Cache = c.c
	}
	e.est, e.cache = &est, c
	return e
}

// Cache returns the attached cross-query cache, or nil.
func (e *Estimator) Cache() *SelCache { return e.cache }

// EstimateBatch runs Estimate over the queries on a pool of worker
// goroutines (sequential when workers <= 1) and returns the answers in input
// order. The estimator is shared by all workers — it is safe for concurrent
// use — so an attached SelCache lets queries with common sub-expressions
// reuse each other's decompositions. Each answer equals what Estimate
// returns for that query alone, failures included: one query's failure is
// confined to its own Answer.
func (e *Estimator) EstimateBatch(ctx context.Context, queries []*Query, workers int) []Answer {
	out := make([]Answer, len(queries))
	fanOut(len(queries), workers, func(i int) { out[i] = e.Estimate(ctx, queries[i]) })
	return out
}

// fanOut runs fn(0..n-1) over a worker pool, mirroring the scheduling idiom
// of sit.BuildWorkloadPoolParallel: one jobs channel, workers draining it.
// Each index is processed exactly once; fn calls for distinct indices may
// run concurrently, so fn must only write state private to its index.
func fanOut(n, workers int, fn func(i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// String renders cache stats compactly, e.g. for benchmark logs.
func (s CacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d entries=%d/%d (hit rate %.1f%%)",
		s.Hits, s.Misses, s.Evictions, s.Entries, s.Capacity, 100*s.HitRate())
}
