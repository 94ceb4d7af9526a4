package core

import (
	"condsel/internal/histogram"
	"condsel/internal/selcache"
	"condsel/internal/sit"
)

// The histogram-join selectivity cache shares the §3.3 wildcard transform's
// expensive step — joining two SIT histograms — across runs and across
// queries. A join's selectivity is a pure function of the two histograms, so
// entries are keyed by the SITs' canonical identities plus the pool
// generation: generations are process-wide unique per pool content (see
// sit.Pool.Generation), so an entry can never be served across different
// pools or across mutations of the same pool, and within one generation
// equal IDs imply equal histograms. Histograms never change in place, so
// nothing invalidates an entry: a retired generation's entries are never
// read again and age out through the LRU. Only the selectivity (a float64)
// is cached — approxJoin and Opt's join scoring need nothing else, and
// caching JoinResult would pin the joined histograms in memory.
//
// Derived SITs (§3.3 Example 3) never reach this cache: they are built for
// filter attributes and only pool-resident SITs are candidates for join
// sides.
var histJoinCache = selcache.New[histJoinKey, float64](1<<14, histJoinKeyHash)

// histJoinKey identifies one histogram join within one pool generation. The
// ID strings are the SITs' precomputed canonical identities (sit.SIT.ID),
// so building a key copies two string headers — no formatting, no
// allocation. The key is ordered: Join(a,b) and Join(b,a) are distinct
// computations with equal results, exactly as under the old string keys.
type histJoinKey struct {
	gen  uint64
	l, r string
}

func histJoinKeyHash(k histJoinKey) uint64 {
	h := selcache.HashUint64(k.gen)
	h = selcache.HashUint64(h ^ selcache.HashString(k.l))
	return selcache.HashUint64(h ^ selcache.HashString(k.r))
}

// sitPair keys the per-run join memo by identity — pointer comparisons and
// zero-allocation lookups; pool SITs are shared objects, so equal pointers
// mean equal histograms.
type sitPair struct {
	hl, hr *sit.SIT
}

// joinSelectivity returns Join(hl.Hist, hr.Hist).Selectivity through two
// cache levels: a per-run pointer-keyed memo, then the process-wide
// cross-query cache. With NoFastPath set it just performs the join.
func (r *Run) joinSelectivity(hl, hr *sit.SIT) float64 {
	if !r.fast {
		return histogram.Join(hl.Hist, hr.Hist).Selectivity
	}
	pk := sitPair{hl, hr}
	if v, ok := r.joinSels[pk]; ok {
		return v
	}
	key := histJoinKey{gen: r.gen, l: hl.ID(), r: hr.ID()}
	v, ok := histJoinCache.Get(key)
	if !ok {
		v = histogram.Join(hl.Hist, hr.Hist).Selectivity
		histJoinCache.Put(key, v)
	}
	r.joinSels[pk] = v
	return v
}

// HistJoinCacheStats exposes the cross-query histogram-join cache's counters
// for benchmarks and diagnostics.
func HistJoinCacheStats() selcache.Stats { return histJoinCache.Stats() }

// ResetHistJoinCache empties the cross-query histogram-join cache and zeroes
// its counters (test and benchmark isolation).
func ResetHistJoinCache() { histJoinCache.Reset() }
