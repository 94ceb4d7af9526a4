package engine

import "math/bits"

// CompIndex answers connected-component queries over subsets of one query's
// predicate slice using precomputed adjacency bitmasks, memoizing per subset.
// It exists for the getSelectivity hot path: the dynamic program asks for the
// components of every predicate subset it visits (and error models ask for
// the component containing a given table), so the per-call union-find of
// Components — with its maps and per-predicate table scans — dominates the
// decomposition-analysis time. A CompIndex pays the adjacency construction
// once per query and then answers each distinct subset once, by bitmask
// flood-fill, returning the memoized slices on every later request.
//
// Results are exactly those of Components (same partition, same order —
// components ascend by smallest member, which is the order the peeling loop
// discovers them in). Callers must treat returned slices as read-only.
//
// The zero CompIndex is unbound; Reset binds it to a predicate slice. Its
// owner keeps it across queries: Reset reuses the adjacency arrays, the
// memo table and the component arena, so a warm index allocates nothing.
// Components live in one arena that grows by append and is indexed by
// offset from the memo; a slice handed out before the arena grew keeps
// pointing into the old array, whose contents never change. A CompIndex
// holds no pointers into the query or catalog, and is single-goroutine
// state, like the run memo it serves.
type CompIndex struct {
	adj    []PredSet  // adj[i]: predicates sharing a table with predicate i
	tables []TableSet // tables[i]: tables referenced by predicate i
	memo   FlatTable[compSpan]

	// Component arena: sets[k] is a component, tabs[k] its referenced
	// tables (sideways lookups by table would otherwise rescan the
	// predicates). A subset's partition is the span memo records.
	sets []PredSet
	tabs []TableSet
}

// compSpan locates one subset's partition in the component arena.
type compSpan struct{ off, n uint32 }

// Reset binds the index to the predicate slice, dropping every memoized
// partition. It costs the adjacency build plus the entries memoized since
// the last Reset, whatever the capacity a larger query left behind.
func (ci *CompIndex) Reset(c *Catalog, preds []Pred) {
	n := len(preds)
	if cap(ci.adj) < n {
		ci.adj = make([]PredSet, n)
		ci.tables = make([]TableSet, n)
	}
	ci.adj, ci.tables = ci.adj[:n], ci.tables[:n]
	ci.memo.Reset()
	ci.sets, ci.tabs = ci.sets[:0], ci.tabs[:0]
	for i := range preds {
		ci.adj[i] = 0
		ci.tables[i] = preds[i].Tables(c)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !ci.tables[i].Disjoint(ci.tables[j]) {
				ci.adj[i] = ci.adj[i].Add(j)
				ci.adj[j] = ci.adj[j].Add(i)
			}
		}
	}
}

// entry returns (computing and memoizing) the subset's partition.
func (ci *CompIndex) entry(set PredSet) compSpan {
	if e, ok := ci.memo.Get(0, uint64(set)); ok {
		return e
	}
	off := len(ci.sets)
	for rest := set; rest != 0; {
		seed := PredSet(1) << uint(bits.TrailingZeros64(uint64(rest)))
		comp, frontier := seed, seed
		var tabs TableSet
		for frontier != 0 {
			var next PredSet
			for f := uint64(frontier); f != 0; f &= f - 1 {
				j := bits.TrailingZeros64(f)
				tabs = tabs.Union(ci.tables[j])
				next = next.Union(ci.adj[j])
			}
			next = next.Intersect(set).Minus(comp)
			comp = comp.Union(next)
			frontier = next
		}
		ci.sets = append(ci.sets, comp)
		ci.tabs = append(ci.tabs, tabs)
		rest = rest.Minus(comp)
	}
	e := compSpan{off: uint32(off), n: uint32(len(ci.sets) - off)}
	ci.memo.Put(0, uint64(set), e)
	return e
}

// Components returns the connected components of the subset, identical to
// Components(cat, preds, set) in value and order (nil for the empty set).
// The returned slice is shared with the index; callers must not modify it.
func (ci *CompIndex) Components(set PredSet) []PredSet {
	e := ci.entry(set)
	if e.n == 0 {
		return nil
	}
	end := e.off + e.n
	return ci.sets[e.off:end:end]
}

// ComponentWith returns the component of set whose referenced tables include
// t, or the empty set when no component touches t. This is the "side
// condition" lookup of the error models: predicates in table-disjoint
// components cannot influence an attribute of t.
func (ci *CompIndex) ComponentWith(set PredSet, t TableID) PredSet {
	e := ci.entry(set)
	for k := e.off; k < e.off+e.n; k++ {
		if ci.tabs[k].Has(t) {
			return ci.sets[k]
		}
	}
	return 0
}
