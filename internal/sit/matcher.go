package sit

import (
	"math/bits"

	"condsel/internal/engine"
)

// Matcher resolves §3.3 candidate lookups for one query (one predicate
// slice) against a pool. It is the hot-path front end to Pool.Candidates:
// per attribute it translates every SIT's expression into a bitmask over the
// query's predicate positions once, so a lookup is a popcount per SIT
// instead of a containment scan, and it caches the resulting candidate
// slice per (attribute, conditioning set) — the getSelectivity DP requests
// the same few conditioning components over and over across the
// exponentially many subsets it visits.
//
// Results are exactly Pool.Candidates' (same SITs, same order), and every
// lookup — cached or not — counts as one view-matching call on the pool, so
// the Figure 6 accounting keeps its meaning: the number of candidate
// requests the algorithm issues, not the number of scans performed.
//
// The zero Matcher is unbound; Reset binds it to a pool and a predicate
// slice. It fetches the pool's candidate index lazily, per attribute, on
// that attribute's first lookup since the Reset, so a query pays only for
// the attributes it touches; like a Run it is single-goroutine state and
// must not be used across pool mutations. Its owner keeps it across
// queries: the projections, the candidate slices and the lookup cache live
// in arenas and a flat table that Reset empties in time proportional to
// what the last query used, so a warm Matcher allocates nothing. The
// candidate arena grows by append; a slice handed out before it grew keeps
// pointing into the old array, whose contents never change. Returned
// slices are shared: callers must not modify them.
type Matcher struct {
	pool  *Pool
	preds []engine.Pred

	// attrs[a] is attribute a's projection; touched lists the attributes
	// projected since the last Reset, which are the only ones it clears.
	attrs   []attrMatcher
	touched []engine.AttrID

	keyed   []engine.PredSet           // arena of the projections' masks
	cands   []*SIT                     // arena of candidate slices
	cache   engine.FlatTable[candSpan] // (attr, cond) → span of cands
	scratch []bool                     // matched flags, reused across lookups
}

// attrMatcher is the per-attribute projection of the pool index onto one
// query's predicate positions: for each k < len(idx.sits), Matcher.keyed[
// keyed+k] holds the positions of the query's predicates whose canonical
// value belongs to idx.sits[k]'s expression. sits[k] matches a conditioning
// set q exactly when |q ∩ mask| == idx.sizes[k] — the same count
// MatchesSubset performs.
type attrMatcher struct {
	idx   *attrIndex // nil when the pool holds no statistic on the attribute
	keyed uint32     // offset of the masks in Matcher.keyed
	built bool
}

// candSpan locates one lookup's candidates in the Matcher's arena.
type candSpan struct{ off, n uint32 }

// Reset binds the matcher to the pool and the query's predicate slice,
// dropping every projection and cached lookup of the previous binding.
// Reset(nil, nil) parks the matcher holding no pointer into a pool, a query
// or a statistic.
func (m *Matcher) Reset(p *Pool, preds []engine.Pred) {
	for _, a := range m.touched {
		m.attrs[a] = attrMatcher{}
	}
	m.touched = m.touched[:0]
	m.keyed = m.keyed[:0]
	clear(m.cands)
	m.cands = m.cands[:0]
	m.cache.Reset()
	m.pool, m.preds = p, preds
}

// forAttr returns (building on first use) the attribute's projection.
func (m *Matcher) forAttr(attr engine.AttrID) *attrMatcher {
	if int(attr) >= len(m.attrs) {
		m.attrs = append(m.attrs, make([]attrMatcher, int(attr)+1-len(m.attrs))...)
	}
	am := &m.attrs[attr]
	if am.built {
		return am
	}
	am.built = true
	m.touched = append(m.touched, attr)
	if idx := m.pool.index().byAttr[attr]; idx != nil {
		am.idx = idx
		am.keyed = uint32(len(m.keyed))
		all := engine.FullPredSet(len(m.preds))
		for _, s := range idx.sits {
			m.keyed = append(m.keyed, s.MatchedSet(m.preds, all))
		}
		if len(idx.sits) > len(m.scratch) {
			m.scratch = make([]bool, len(idx.sits))
		}
	}
	return am
}

// Candidates returns the pool's candidate SITs for approximating a factor
// over attr conditioned on cond — bit-identical to
// Pool.Candidates(preds, attr, cond) — serving repeats from the matcher's
// cache. The returned slice is shared; callers must not modify it.
func (m *Matcher) Candidates(attr engine.AttrID, cond engine.PredSet) []*SIT {
	m.pool.matchCalls.Add(1)
	sp, ok := m.cache.Get(uint64(attr), uint64(cond))
	if !ok {
		sp.off = uint32(len(m.cands))
		if am := m.forAttr(attr); am.idx != nil {
			keyed := m.keyed[am.keyed : am.keyed+uint32(len(am.idx.sits))]
			matched := m.scratch[:len(keyed)]
			for k, mask := range keyed {
				matched[k] = bits.OnesCount64(uint64(cond&mask)) == am.idx.sizes[k]
			}
			m.cands = am.idx.appendMaximal(m.cands, matched)
		}
		sp.n = uint32(len(m.cands)) - sp.off
		m.cache.Put(uint64(attr), uint64(cond), sp)
	}
	if sp.n == 0 {
		return nil
	}
	end := sp.off + sp.n
	return m.cands[sp.off:end:end]
}

// ExprMask returns the positions of the bound query's predicates that
// belong to h's expression when h is one of attr's indexed statistics, read
// from the attribute's projection: h.MatchedSet(preds, q) equals q & mask
// for every q. A statistic outside the pool index, such as a SIT derived
// per run (§3.3 Example 3), reports ok false.
func (m *Matcher) ExprMask(attr engine.AttrID, h *SIT) (mask engine.PredSet, ok bool) {
	am := m.forAttr(attr)
	if am.idx == nil {
		return 0, false
	}
	for k, s := range am.idx.sits {
		if s == h {
			return m.keyed[am.keyed+uint32(k)], true
		}
	}
	return 0, false
}
