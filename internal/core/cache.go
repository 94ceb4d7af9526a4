package core

import (
	"math/bits"

	"condsel/internal/engine"
	"condsel/internal/selcache"
)

// CacheKey is the canonical cross-query cache key: error-model name, pool
// generation (globally unique per pool content — see sit.Pool.Generation),
// and the packed structural signature of the predicate set. The generation
// component guarantees entries can never be served across different pools or
// across mutations of the same pool; once a publisher retires a generation
// no run asks for its keys again, and the cache's LRU ages its entries out.
// Building a key is pure integer work over the run's precomputed
// per-position signature tables — no strings, no allocation.
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

// CacheEntry is a published decomposition, shared across queries through
// Estimator.Cache without copying it. Sel, Err and the canonical chain key
// are position-independent by construction (see chainHead). Set and the
// factors' P/Q masks are predicate positions of the publishing run's query,
// which Frame records: its canonical predicates, and the order that sorts
// them. The factors are the computed decomposition's own slice (see decomp
// for the invariant that makes sharing it safe).
//
// A hit decodes positions through canonical order: the publishing run's
// members of Set and the reading run's members of its own set, each walked
// in canonical PredLess order (ties in ascending position), pair up rank by
// rank. Walking them also compares the canonical predicates pairwise — the
// witness the packed 128-bit key signature is verified against on every
// hit, so a hash collision degrades to a cache miss (and a recomputation),
// never a wrong answer. A decoded entry is therefore bit-identical to what
// the reading run would have computed itself, even when the same
// structural predicate set sits at different positions in the two queries.
type CacheEntry struct {
	decomp                // the published decomposition; its factors are shared, never mutated
	Set    engine.PredSet // the entry's predicates, as positions in Frame
	Frame  *CacheFrame
}

// CacheFrame is the positional frame of one publishing run's entries: its
// query's canonical predicates by position, and those positions in
// canonical PredLess order (ties in ascending position). A run allocates
// its frame at its first publish and never mutates it afterwards; every
// entry the run publishes shares it.
type CacheFrame struct {
	Preds []engine.Pred
	Order []uint8
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
// PredLess order (ties in ascending position order) and returns how many
// it wrote.
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
func (r *Run) cacheGet(set engine.PredSet) (*decomp, bool) {
	if r.Est.Cache == nil || set.Empty() {
		return nil, false
	}
	e, ok := r.Est.Cache.Get(r.cacheKey(set))
	if !ok {
		return nil, false
	}
	f := e.Frame
	if f == nil || uint64(e.Set)>>uint(len(f.Preds)) != 0 {
		return nil, false
	}
	var pos [64]uint8
	k := r.canonPositions(set, &pos)
	// Walk the frame's members of e.Set in canonical order against the
	// run's members of set in canonical order. The packed key's 64-bit hash
	// half leaves a ~2^-64 collision residue; comparing the canonical
	// predicates rank by rank closes it. A mismatch, or sets of different
	// sizes, is treated as a miss and recomputed. The walk also builds the
	// position map the factors decode through: frame position -> run
	// position.
	var toRun [64]uint8
	rank := 0
	for _, fp := range f.Order {
		if !e.Set.Has(int(fp)) {
			continue
		}
		if rank == k || f.Preds[fp] != r.canonPreds[pos[rank]] {
			return nil, false
		}
		toRun[fp] = pos[rank]
		rank++
	}
	if rank != k {
		return nil, false
	}
	for _, fac := range e.factors {
		// Defensive: a malformed entry (a factor mask outside the entry's
		// set, impossible under the encoding) is a miss, never served.
		if !fac.P.SubsetOf(e.Set) || !fac.Q.SubsetOf(e.Set) {
			return nil, false
		}
	}
	d := r.newDecomp()
	d.Result, d.key = e.Result, e.key
	if len(e.factors) > 0 {
		factors := r.newFactors(len(e.factors))
		for fi, fac := range e.factors {
			var p, q engine.PredSet
			for m := uint64(fac.P); m != 0; m &= m - 1 {
				p = p.Add(int(toRun[bits.TrailingZeros64(m)]))
			}
			for m := uint64(fac.Q); m != 0; m &= m - 1 {
				q = q.Add(int(toRun[bits.TrailingZeros64(m)]))
			}
			factors[fi] = factor{P: p, Q: q, Sel: fac.Sel, Err: fac.Err, SITs: fac.SITs}
		}
		d.factors = factors
	}
	return d, true
}

// cachePut publishes a freshly computed decomposition under its canonical
// key. Invalid results — NaN or out-of-range selectivities, e.g. under an
// armed NaNSelectivity fault — are never published: the cross-query cache
// is shared state, and one poisoned entry would outlive the failure that
// produced it. It runs once per computed subset, which on a stream of
// distinct queries is about 200 times per request, so it copies nothing:
// the entry shares the decomposition's factor slice and names its
// predicates as positions in the run's frame, which the run allocates once,
// at its first publish. The selcache Put behind it updates its shard in
// place and allocates nothing once the shard is full.
func (r *Run) cachePut(set engine.PredSet, d *decomp) {
	if r.Est.Cache == nil || set.Empty() || invalidResult(d.Result) != "" {
		return
	}
	if r.frame == nil {
		n := len(r.canonPreds)
		f := &CacheFrame{Preds: make([]engine.Pred, n), Order: make([]uint8, n)}
		copy(f.Preds, r.canonPreds)
		copy(f.Order, r.canonOrder)
		r.frame = f
	}
	r.Est.Cache.Put(r.cacheKey(set), CacheEntry{decomp: *d, Set: set, Frame: r.frame})
}
