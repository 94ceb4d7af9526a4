package core

import (
	"math/bits"

	"condsel/internal/engine"
	"condsel/internal/selcache"
	"condsel/internal/sit"
)

// CacheKey is the canonical cross-query cache key: error-model name, pool
// generation (globally unique per pool content — see sit.Pool.Generation),
// and the packed structural signature of the predicate set. The generation
// component guarantees entries can never be served across different pools or
// across mutations of the same pool; the epoch-retirement eviction in the
// lifecycle manager matches on it structurally. Building a key is pure
// integer work over the run's precomputed per-position signature tables —
// no strings, no allocation.
type CacheKey struct {
	Model string
	Gen   uint64
	Sig   engine.PredSig
}

// CacheKeyHash mixes a CacheKey for the cache's shard selection.
func CacheKeyHash(k CacheKey) uint64 {
	h := selcache.HashString(k.Model)
	h = selcache.HashUint64(h ^ k.Gen)
	h = selcache.HashUint64(h ^ uint64(k.Sig.Tables))
	return selcache.HashUint64(h ^ k.Sig.Hash)
}

// SelCacheStore is the concrete cross-query cache type; it satisfies
// SelCache.
type SelCacheStore = selcache.Cache[CacheKey, CacheEntry]

// NewSelCache returns a cross-query selectivity cache holding at most
// capacity entries, keyed and sharded canonically.
func NewSelCache(capacity int) *SelCacheStore {
	return selcache.New[CacheKey, CacheEntry](capacity, CacheKeyHash)
}

// CacheEntry is the position-independent form of a Result, suitable for
// sharing across queries through Estimator.Cache. Preds is the entry's
// predicate multiset in canonical PredLess order: it is the witness the
// packed 128-bit key signature is verified against on every hit, so a hash
// collision degrades to a cache miss (and a recomputation), never a wrong
// answer. Factor predicate sets are bitmasks over that canonical sequence
// rather than positional bitsets, because the same structural predicate set
// can sit at different positions in different queries. Sel, Err and the
// canonical chain key are position-independent by construction (see
// chainHead), so a decoded entry is bit-identical to what the run would
// have computed itself.
type CacheEntry struct {
	Sel, Err float64
	Key      string
	Preds    []engine.Pred // canonical (PredLess-sorted) predicates
	Factors  []CacheFactor
}

// CacheFactor mirrors Factor with P/Q as bitmasks over CacheEntry.Preds
// (canonical indices, not query positions).
type CacheFactor struct {
	P, Q     engine.PredSet
	Sel, Err float64
	SITs     []*sit.SIT
}

// cacheKey builds the packed canonical cache key for the predicate set from
// the run's precomputed signature tables. Allocation-free.
func (r *Run) cacheKey(set engine.PredSet) CacheKey {
	var sig engine.PredSig
	for s := uint64(set); s != 0; s &= s - 1 {
		i := bits.TrailingZeros64(s)
		sig.Tables = sig.Tables.Union(r.predTables[i])
		sig.Hash += r.predHash[i]
	}
	return CacheKey{Model: r.modelName, Gen: r.gen, Sig: sig}
}

// canonPositions writes set's member positions into pos in canonical
// PredLess order (ties in ascending position order, mirroring cachePut's
// encoding) and returns how many it wrote.
func (r *Run) canonPositions(set engine.PredSet, pos *[64]uint8) int {
	k := 0
	for _, p := range r.canonOrder {
		if set.Has(int(p)) {
			pos[k] = p
			k++
		}
	}
	return k
}

// cacheGet looks the predicate set up in the estimator's cross-query cache,
// verifies the hit's canonical predicates against the run's own (collision
// check), and decodes it into positional form in the run's arenas. The
// whole path is allocation-free.
func (r *Run) cacheGet(set engine.PredSet) (*Result, bool) {
	if r.Est.Cache == nil || set.Empty() {
		return nil, false
	}
	e, ok := r.Est.Cache.Get(r.cacheKey(set))
	if !ok {
		return nil, false
	}
	var pos [64]uint8
	k := r.canonPositions(set, &pos)
	if len(e.Preds) != k {
		return nil, false
	}
	for ci := 0; ci < k; ci++ {
		// The packed key's 64-bit hash half leaves a ~2^-64 collision
		// residue; comparing the canonical predicates closes it. A
		// mismatch is treated as a miss and recomputed.
		if e.Preds[ci] != r.canonPreds[pos[ci]] {
			return nil, false
		}
	}
	for _, f := range e.Factors {
		// Defensive: a malformed entry (mask bits beyond the predicate
		// count, impossible under the encoding) is a miss, never served.
		if uint64(f.P)>>uint(k) != 0 || uint64(f.Q)>>uint(k) != 0 {
			return nil, false
		}
	}
	res := r.newResult()
	res.Sel, res.Err, res.key = e.Sel, e.Err, e.Key
	if len(e.Factors) > 0 {
		factors := r.newFactors(len(e.Factors))
		for fi, f := range e.Factors {
			var p, q engine.PredSet
			for m := uint64(f.P); m != 0; m &= m - 1 {
				p = p.Add(int(pos[bits.TrailingZeros64(m)]))
			}
			for m := uint64(f.Q); m != 0; m &= m - 1 {
				q = q.Add(int(pos[bits.TrailingZeros64(m)]))
			}
			factors[fi] = Factor{P: p, Q: q, Sel: f.Sel, Err: f.Err, SITs: f.SITs}
		}
		res.Factors = factors
	}
	return res, true
}

// cachePut publishes a freshly computed result under its canonical key,
// re-encoding positional factor sets as canonical-index masks. Invalid
// results — NaN or out-of-range selectivities, e.g. under an armed
// NaNSelectivity fault — are never published: the cross-query cache is
// shared state, and one poisoned entry would outlive the failure that
// produced it. It runs once per computed subset, which on a stream of
// distinct queries is about 200 times per request, so its cost is not
// negligible there: it allocates the entry's Preds and Factors (the cache
// retains them), while the selcache Put behind it updates its shard in
// place and allocates nothing once the shard is full.
func (r *Run) cachePut(set engine.PredSet, res *Result) {
	if r.Est.Cache == nil || set.Empty() || invalidResult(res) != "" {
		return
	}
	var pos [64]uint8
	k := r.canonPositions(set, &pos)
	// Inverse map: query position -> canonical index. Duplicate structural
	// predicates map ascending positions to ascending indices (canonical
	// order is position-stable), so decode's ascending assignment restores
	// an equivalent positional set.
	var inv [64]uint8
	preds := make([]engine.Pred, k)
	for ci := 0; ci < k; ci++ {
		inv[pos[ci]] = uint8(ci)
		preds[ci] = r.canonPreds[pos[ci]]
	}
	e := CacheEntry{Sel: res.Sel, Err: res.Err, Key: res.key, Preds: preds}
	if len(res.Factors) > 0 {
		e.Factors = make([]CacheFactor, 0, len(res.Factors))
		for _, f := range res.Factors {
			var p, q engine.PredSet
			for m := uint64(f.P); m != 0; m &= m - 1 {
				p = p.Add(int(inv[bits.TrailingZeros64(m)]))
			}
			for m := uint64(f.Q); m != 0; m &= m - 1 {
				q = q.Add(int(inv[bits.TrailingZeros64(m)]))
			}
			e.Factors = append(e.Factors, CacheFactor{P: p, Q: q, Sel: f.Sel, Err: f.Err, SITs: f.SITs})
		}
	}
	r.Est.Cache.Put(r.cacheKey(set), e)
}
