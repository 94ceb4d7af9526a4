package engine

import (
	"fmt"
	"sync"
)

// Evaluator computes exact cardinalities and value distributions for
// predicate sets over catalog tables. It is the ground-truth oracle for the
// experiments and the execution engine used to build SITs.
//
// Counts of connected predicate components are memoized by structural
// predicate signature, so evaluating the cardinality of every sub-query of a
// workload query costs one join evaluation per distinct connected component.
// An Evaluator is safe for concurrent use: the memo table and counters are
// guarded by a mutex, and joins are evaluated outside the lock (a race
// between two misses for the same component computes the same value twice,
// which is harmless because exact counts are deterministic).
type Evaluator struct {
	cat *Catalog

	mu         sync.Mutex
	compCounts map[string]float64
	// Evaluations counts actual join evaluations (cache misses), for tests
	// and experiment reporting. Read it only when no concurrent evaluation
	// is in flight.
	Evaluations int
}

// NewEvaluator returns an evaluator over the catalog.
func NewEvaluator(c *Catalog) *Evaluator {
	return &Evaluator{cat: c, compCounts: make(map[string]float64)}
}

// Count returns |σ_set(tables^×)| exactly. Tables in the set that are not
// referenced by any predicate contribute their full cardinality as a factor.
// The result is a float64 because cartesian products overflow int64.
func (e *Evaluator) Count(tables TableSet, preds []Pred, set PredSet) float64 {
	referenced := PredsTables(e.cat, preds, set)
	if !referenced.SubsetOf(tables) {
		panic(fmt.Sprintf("engine: predicates reference tables %v outside %v", referenced, tables))
	}
	total := 1.0
	for _, comp := range Components(e.cat, preds, set) {
		total *= e.componentCount(preds, comp)
	}
	for _, id := range tables.Minus(referenced).Tables() {
		total *= float64(e.cat.TableRows(id))
	}
	return total
}

// Selectivity returns Sel_tables(set) = |σ_set(tables^×)| / |tables^×|.
func (e *Evaluator) Selectivity(tables TableSet, preds []Pred, set PredSet) float64 {
	cross := e.cat.CrossSize(tables)
	if cross == 0 {
		return 0
	}
	return e.Count(tables, preds, set) / cross
}

// ConditionalSelectivity returns Sel_tables(p|q) per Definition 1: the
// fraction of tuples of σ_q(tables^×) that also satisfy p. If σ_q is empty
// the value is undefined; 0 is returned.
func (e *Evaluator) ConditionalSelectivity(tables TableSet, preds []Pred, p, q PredSet) float64 {
	denom := e.Count(tables, preds, q)
	if denom == 0 {
		return 0
	}
	return e.Count(tables, preds, p.Union(q)) / denom
}

// componentCount evaluates one connected predicate component exactly,
// memoizing by structural signature. The join itself runs outside the lock
// so concurrent misses on distinct components evaluate in parallel.
func (e *Evaluator) componentCount(preds []Pred, comp PredSet) float64 {
	key := PredsKey(preds, comp)
	e.mu.Lock()
	if v, ok := e.compCounts[key]; ok {
		e.mu.Unlock()
		return v
	}
	e.mu.Unlock()
	res := e.evalComponent(preds, comp)
	v := float64(res.count())
	e.mu.Lock()
	e.compCounts[key] = v
	e.mu.Unlock()
	return v
}

// AttrValues executes σ_set(tables(set)^×) and returns the multiset of
// values of attr over the result, excluding tuples where attr is NULL. When
// set is empty, the base column of attr (minus NULLs) is returned. The
// attribute's table must be referenced by the predicates when set is
// non-empty.
func (e *Evaluator) AttrValues(attr AttrID, preds []Pred, set PredSet) []int64 {
	col := e.cat.AttrColumn(attr)
	if set.Empty() {
		out := make([]int64, 0, len(col.Vals))
		for i, v := range col.Vals {
			if !col.IsNull(i) {
				out = append(out, v)
			}
		}
		return out
	}
	at := e.cat.AttrTable(attr)
	referenced := PredsTables(e.cat, preds, set)
	if !referenced.Has(at) {
		panic(fmt.Sprintf("engine: attribute %s not covered by expression tables %v",
			e.cat.AttrName(attr), referenced))
	}
	// Only the component containing the attribute's table shapes the
	// distribution of attr; other components scale every frequency by the
	// same factor, which is irrelevant for histograms and selectivities.
	var target PredSet
	for _, comp := range Components(e.cat, preds, set) {
		if PredsTables(e.cat, preds, comp).Has(at) {
			target = comp
			break
		}
	}
	res := e.evalComponent(preds, target)
	pos := res.tablePos(at)
	out := make([]int64, 0, res.count())
	for _, row := range res.rows[pos] {
		if !col.IsNull(int(row)) {
			out = append(out, col.Vals[row])
		}
	}
	return out
}

// joinResult is a materialized join of one connected component: rows[k][i]
// is the base-table row index of tables[k] in the i-th output tuple.
type joinResult struct {
	tables []TableID
	rows   [][]int32
}

func (r *joinResult) count() int {
	if len(r.rows) == 0 {
		return 0
	}
	return len(r.rows[0])
}

func (r *joinResult) tablePos(id TableID) int {
	for k, t := range r.tables {
		if t == id {
			return k
		}
	}
	panic(fmt.Sprintf("engine: table %d not in join result", id))
}

// evalComponent evaluates one connected predicate component: filters are
// pushed to base tables, an acyclic core of the equi-join graph is evaluated
// with hash joins, and any remaining (cycle-closing) join predicates are
// applied as post-filters on already-joined tables.
func (e *Evaluator) evalComponent(preds []Pred, comp PredSet) *joinResult {
	e.mu.Lock()
	e.Evaluations++
	e.mu.Unlock()
	c := e.cat
	idxs := comp.Indices()

	// Partition predicates: per-table filters (incl. self-joins) vs joins.
	tableFilters := make(map[TableID][]Pred)
	var joins []Pred
	var tset TableSet
	for _, i := range idxs {
		p := preds[i]
		tset = tset.Union(p.Tables(c))
		if p.IsJoin() && !p.SelfJoin(c) {
			joins = append(joins, p)
		} else {
			attr := p.Attr // NoAttr for a self-join: its table is Left's
			if p.IsJoin() {
				attr = p.Left
			}
			t := c.AttrTable(attr)
			tableFilters[t] = append(tableFilters[t], p)
		}
	}

	// Filtered row lists per table.
	filtered := make(map[TableID][]int32, tset.Len())
	for _, id := range tset.Tables() {
		filtered[id] = e.filterTable(id, tableFilters[id])
	}

	tables := tset.Tables()
	if len(tables) == 1 {
		return &joinResult{tables: tables, rows: [][]int32{filtered[tables[0]]}}
	}

	// Seed with the smallest filtered table that participates in a join.
	start := tables[0]
	for _, id := range tables {
		if len(filtered[id]) < len(filtered[start]) {
			start = id
		}
	}
	cur := &joinResult{tables: []TableID{start}, rows: [][]int32{filtered[start]}}
	joined := NewTableSet(start)
	used := make([]bool, len(joins))

	for remaining := len(joins); remaining > 0; {
		progressed := false
		// Prefer post-filters (both sides joined): they only shrink.
		for ji, jp := range joins {
			if used[ji] {
				continue
			}
			lt, rt := c.AttrTable(jp.Left), c.AttrTable(jp.Right)
			if joined.Has(lt) && joined.Has(rt) {
				cur = postFilterJoin(c, cur, jp)
				used[ji] = true
				remaining--
				progressed = true
			}
		}
		// Then one expansion step.
		expanded := false
		for ji, jp := range joins {
			if used[ji] {
				continue
			}
			lt, rt := c.AttrTable(jp.Left), c.AttrTable(jp.Right)
			var haveAttr, newAttr AttrID
			var newTable TableID
			switch {
			case joined.Has(lt) && !joined.Has(rt):
				haveAttr, newAttr, newTable = jp.Left, jp.Right, rt
			case joined.Has(rt) && !joined.Has(lt):
				haveAttr, newAttr, newTable = jp.Right, jp.Left, lt
			default:
				continue
			}
			cur = hashJoin(c, cur, haveAttr, newTable, newAttr, filtered[newTable])
			joined = joined.Add(newTable)
			used[ji] = true
			remaining--
			progressed, expanded = true, true
			break
		}
		_ = expanded
		if !progressed {
			// A connected component always admits progress; reaching here
			// means the component was not actually connected via joins.
			panic("engine: join graph of component is not connected")
		}
	}
	return cur
}

// filterTable returns row indices of table id satisfying all filters.
func (e *Evaluator) filterTable(id TableID, filters []Pred) []int32 {
	t := e.cat.Table(id)
	n := t.NumRows()
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		ok := true
		for _, p := range filters {
			if !p.Matches(e.cat, i) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, int32(i))
		}
	}
	return out
}

// hashJoin expands cur with rows of newTable matching on
// cur.haveAttr = newAttr, using a hash table built over newRows.
func hashJoin(c *Catalog, cur *joinResult, haveAttr AttrID, newTable TableID, newAttr AttrID, newRows []int32) *joinResult {
	newCol := c.AttrColumn(newAttr)
	build := make(map[int64][]int32, len(newRows))
	for _, r := range newRows {
		if newCol.IsNull(int(r)) {
			continue
		}
		v := newCol.Vals[r]
		build[v] = append(build[v], r)
	}

	havePos := cur.tablePos(c.AttrTable(haveAttr))
	haveCol := c.AttrColumn(haveAttr)

	out := &joinResult{
		tables: append(append([]TableID{}, cur.tables...), newTable),
		rows:   make([][]int32, len(cur.tables)+1),
	}
	n := cur.count()
	for i := 0; i < n; i++ {
		row := cur.rows[havePos][i]
		if haveCol.IsNull(int(row)) {
			continue
		}
		matches := build[haveCol.Vals[row]]
		for _, m := range matches {
			for k := range cur.tables {
				out.rows[k] = append(out.rows[k], cur.rows[k][i])
			}
			out.rows[len(cur.tables)] = append(out.rows[len(cur.tables)], m)
		}
	}
	return out
}

// postFilterJoin keeps tuples of cur satisfying jp, whose two sides are both
// already joined (closing a cycle in the join graph).
func postFilterJoin(c *Catalog, cur *joinResult, jp Pred) *joinResult {
	lPos := cur.tablePos(c.AttrTable(jp.Left))
	rPos := cur.tablePos(c.AttrTable(jp.Right))
	lCol, rCol := c.AttrColumn(jp.Left), c.AttrColumn(jp.Right)

	out := &joinResult{tables: cur.tables, rows: make([][]int32, len(cur.tables))}
	n := cur.count()
	for i := 0; i < n; i++ {
		lr, rr := cur.rows[lPos][i], cur.rows[rPos][i]
		if lCol.IsNull(int(lr)) || rCol.IsNull(int(rr)) {
			continue
		}
		if lCol.Vals[lr] != rCol.Vals[rr] {
			continue
		}
		for k := range cur.tables {
			out.rows[k] = append(out.rows[k], cur.rows[k][i])
		}
	}
	return out
}

// CacheSize returns the number of memoized component counts.
func (e *Evaluator) CacheSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.compCounts)
}

// ResetCache clears memoized counts and the evaluation counter.
func (e *Evaluator) ResetCache() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.compCounts = make(map[string]float64)
	e.Evaluations = 0
}
