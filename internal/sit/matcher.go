package sit

import (
	"math/bits"

	"condsel/internal/engine"
)

// Matcher resolves §3.3 candidate lookups for one query (one predicate
// slice) against a pool. It is the hot-path front end to Pool.Candidates:
// per attribute it translates every SIT's expression into a bitmask over the
// query's predicate positions once, so a lookup is a popcount per SIT
// instead of a string-keyed containment scan, and it caches the resulting
// candidate slice per (attribute, conditioning set) — the getSelectivity DP
// requests the same few conditioning components over and over across the
// exponentially many subsets it visits.
//
// Results are exactly Pool.Candidates' (same SITs, same order), and every
// lookup — cached or not — counts as one view-matching call on the pool, so
// the Figure 6 accounting keeps its meaning: the number of candidate
// requests the algorithm issues, not the number of scans performed.
//
// The Matcher snapshots the pool's generation at creation; like a Run it is
// single-goroutine state and must not outlive pool mutations. Returned
// slices are shared with the cache: callers must not modify them.
type Matcher struct {
	pool  *Pool
	preds []engine.Pred
	attrs map[engine.AttrID]*attrMatcher
	cache map[matchKey][]*SIT
}

type matchKey struct {
	attr engine.AttrID
	cond engine.PredSet
}

// attrMatcher is the per-attribute projection of the pool index onto one
// query's predicate positions.
type attrMatcher struct {
	idx *attrIndex

	// keyed[k]: positions of the query's predicates whose canonical value
	// belongs to sits[k]'s expression. sizes[k] is the expression's distinct
	// predicate count, so sits[k] matches a conditioning set q exactly when
	// |q ∩ keyed[k]| == sizes[k] — the same count MatchesSubset performs.
	keyed   []engine.PredSet
	sizes   []int
	scratch []bool // matched flags, reused across lookups
}

// NewMatcher returns a matcher for the query's predicate slice over the
// pool's current contents. Attribute projections are built lazily on first
// lookup, so queries touching few attributes pay only for those.
func NewMatcher(p *Pool, preds []engine.Pred) *Matcher {
	return &Matcher{
		pool:  p,
		preds: preds,
		attrs: make(map[engine.AttrID]*attrMatcher),
		cache: make(map[matchKey][]*SIT),
	}
}

// forAttr returns (building on first use) the attribute's projection.
func (m *Matcher) forAttr(attr engine.AttrID) *attrMatcher {
	if am, ok := m.attrs[attr]; ok {
		return am
	}
	var am *attrMatcher
	if idx := m.pool.index().byAttr[attr]; idx != nil {
		am = &attrMatcher{
			idx:     idx,
			keyed:   make([]engine.PredSet, len(idx.sits)),
			sizes:   make([]int, len(idx.sits)),
			scratch: make([]bool, len(idx.sits)),
		}
		for k, s := range idx.sits {
			am.sizes[k] = len(s.exprSet)
			am.keyed[k] = s.MatchedSet(m.preds, engine.FullPredSet(len(m.preds)))
		}
	}
	m.attrs[attr] = am
	return am
}

// Candidates returns the pool's candidate SITs for approximating a factor
// over attr conditioned on cond — bit-identical to
// Pool.Candidates(preds, attr, cond) — serving repeats from the per-run
// cache. The returned slice is shared; callers must not modify it.
func (m *Matcher) Candidates(attr engine.AttrID, cond engine.PredSet) []*SIT {
	m.pool.matchCalls.Add(1)
	key := matchKey{attr, cond}
	if out, ok := m.cache[key]; ok {
		return out
	}
	var out []*SIT
	if am := m.forAttr(attr); am != nil {
		for k := range am.idx.sits {
			am.scratch[k] = bits.OnesCount64(uint64(cond&am.keyed[k])) == am.sizes[k]
		}
		out = am.idx.maximal(am.scratch)
	}
	m.cache[key] = out
	return out
}
