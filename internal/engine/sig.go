package engine

import "math/bits"

// PredSig packs the structural identity of a predicate subset into 128 bits:
// the exact set of referenced tables (the engine's 64-table cap makes this
// half collision-free) and a 64-bit mixed hash of the member predicates'
// canonical payloads. It replaces the sorted-string PredsKey on the
// estimation hot path — building one is a few dozen integer operations and
// zero allocations, and two structurally equal predicate multisets produce
// equal signatures regardless of predicate positions or ordering.
//
// The hash half sums per-predicate mixed hashes with wrapping addition, so
// it is order-invariant and — unlike XOR — keeps duplicated predicates
// distinguishable (a multiset property PredsKey also has). Signatures are
// compared, never decoded; consumers that must be immune to the ~2^-64
// residual hash-collision probability keep the canonical predicates
// alongside and verify them on lookup (see core.CacheEntry.Frame).
type PredSig struct {
	Tables TableSet
	Hash   uint64
}

// Canon returns p with every field its kind does not use forced back to the
// constructor defaults, so that two predicates are structurally identical —
// Key() equal — exactly when their canonical forms are equal as Go values.
// Join sides are not reordered (Key does not reorder them either; Join()
// already canonicalizes Left < Right at construction). Predicates built
// through Filter/Eq/Join are their own canonical form.
func (p Pred) Canon() Pred {
	if p.Kind == JoinPred {
		return Pred{Kind: JoinPred, Attr: NoAttr, Left: p.Left, Right: p.Right}
	}
	return Pred{Kind: FilterPred, Attr: p.Attr, Lo: p.Lo, Hi: p.Hi, Left: NoAttr, Right: NoAttr}
}

// Distinct seeds keep the two predicate kinds in disjoint hash streams even
// when their payload integers coincide.
const (
	sigSeedFilter = 0x9e3779b97f4a7c15
	sigSeedJoin   = 0xc2b2ae3d27d4eb4f
)

// mix64 is the splitmix64 finalizer: a cheap bijective mixer whose every
// output bit depends on every input bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SigHash returns the 64-bit mixed hash of the predicate's canonical
// payload — the per-predicate term that PredsSig sums into PredSig.Hash.
func (p Pred) SigHash() uint64 {
	c := p.Canon()
	if c.Kind == JoinPred {
		h := mix64(sigSeedJoin ^ uint64(int64(c.Left)))
		return mix64(h + mix64(uint64(int64(c.Right))))
	}
	h := mix64(sigSeedFilter ^ uint64(int64(c.Attr)))
	h = mix64(h + mix64(uint64(c.Lo)))
	return mix64(h + mix64(uint64(c.Hi)))
}

// PredsSig returns the packed signature of the predicate subset at the set
// positions of preds. It allocates nothing.
func PredsSig(c *Catalog, preds []Pred, set PredSet) PredSig {
	var sig PredSig
	for s := uint64(set); s != 0; s &= s - 1 {
		p := preds[bits.TrailingZeros64(s)]
		sig.Tables = sig.Tables.Union(p.Tables(c))
		sig.Hash += p.SigHash()
	}
	return sig
}

// PredsHash is the hash half of PredsSig for callers without a catalog: the
// table-set half depends on the catalog's attribute→table mapping, the
// payload hash does not.
func PredsHash(preds []Pred, set PredSet) uint64 {
	var h uint64
	for s := uint64(set); s != 0; s &= s - 1 {
		h += preds[bits.TrailingZeros64(s)].SigHash()
	}
	return h
}

// PredLess is a total, position-independent order on predicates: field-wise
// comparison of the canonical forms. It sequences the predicates stored in
// cross-query cache entries deterministically. Structurally identical
// predicates compare unordered in both directions; callers that need
// stability break such ties by position.
func PredLess(a, b Pred) bool {
	a, b = a.Canon(), b.Canon()
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	if a.Lo != b.Lo {
		return a.Lo < b.Lo
	}
	if a.Hi != b.Hi {
		return a.Hi < b.Hi
	}
	if a.Left != b.Left {
		return a.Left < b.Left
	}
	return a.Right < b.Right
}
