package engine

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// PredKind distinguishes the two predicate shapes of the paper's canonical
// SPJ form: single-attribute range filters and two-attribute equi-joins.
type PredKind int

const (
	// FilterPred is a range predicate lo ≤ attr ≤ hi over one attribute.
	FilterPred PredKind = iota
	// JoinPred is an equality predicate left = right between two attributes
	// (usually of different tables).
	JoinPred
)

// Unbounded range endpoints for one-sided filters.
const (
	MinValue = math.MinInt64
	MaxValue = math.MaxInt64
)

// Pred is one conjunct of a canonical SPJ query σ_{p1∧…∧pk}(R1×…×Rn).
//
// A FilterPred uses Attr, Lo and Hi (inclusive bounds; use MinValue/MaxValue
// for one-sided ranges). A JoinPred uses Left and Right, kept in canonical
// order Left < Right so structurally equal joins compare equal.
type Pred struct {
	Kind PredKind

	// Filter fields.
	Attr   AttrID
	Lo, Hi int64

	// Join fields.
	Left, Right AttrID
}

// Filter returns a range predicate lo ≤ attr ≤ hi.
func Filter(attr AttrID, lo, hi int64) Pred {
	return Pred{Kind: FilterPred, Attr: attr, Lo: lo, Hi: hi, Left: NoAttr, Right: NoAttr}
}

// Eq returns an equality filter attr = v.
func Eq(attr AttrID, v int64) Pred { return Filter(attr, v, v) }

// Join returns an equi-join predicate left = right in canonical attribute
// order.
func Join(left, right AttrID) Pred {
	if right < left {
		left, right = right, left
	}
	return Pred{Kind: JoinPred, Left: left, Right: right, Attr: NoAttr}
}

// Tables returns the set of tables referenced by p.
func (p Pred) Tables(c *Catalog) TableSet {
	switch p.Kind {
	case FilterPred:
		return NewTableSet(c.AttrTable(p.Attr))
	case JoinPred:
		return NewTableSet(c.AttrTable(p.Left), c.AttrTable(p.Right))
	}
	return 0
}

// Attrs returns the attributes mentioned by p.
func (p Pred) Attrs() []AttrID {
	switch p.Kind {
	case FilterPred:
		return []AttrID{p.Attr}
	case JoinPred:
		return []AttrID{p.Left, p.Right}
	}
	return nil
}

// IsJoin reports whether p is an equi-join predicate.
func (p Pred) IsJoin() bool { return p.Kind == JoinPred }

// SelfJoin reports whether p is a join whose two sides belong to the same
// table (evaluated as a per-row filter).
func (p Pred) SelfJoin(c *Catalog) bool {
	return p.Kind == JoinPred && c.AttrTable(p.Left) == c.AttrTable(p.Right)
}

// Key returns a canonical, comparable identity for the predicate. Two
// predicates with equal keys are structurally identical, exactly when their
// Canon forms are equal.
// No estimation path calls Key: runs pre-canonicalize predicates at NewRun
// and compare/hash them as values (Canon, SigHash), and SIT matching tests
// expression membership by canonical value. Key's callers are SIT.ID at
// construction, the DP's chain keys (built once per computing run), the
// evaluator memo, the join-synopsis edge index and diagnostics.
func (p Pred) Key() string {
	if p.Kind == JoinPred {
		//lint:ignore hotalloc cold path: SIT IDs at construction, chain keys once per run, evaluator memo, diagnostics
		return fmt.Sprintf("J%d=%d", p.Left, p.Right)
	}
	//lint:ignore hotalloc cold path: SIT IDs at construction, chain keys once per run, evaluator memo, diagnostics
	return fmt.Sprintf("F%d[%d,%d]", p.Attr, p.Lo, p.Hi)
}

// Format renders the predicate with attribute names from the catalog.
func (p Pred) Format(c *Catalog) string {
	if p.Kind == JoinPred {
		return c.AttrName(p.Left) + " = " + c.AttrName(p.Right)
	}
	switch {
	case p.Lo == p.Hi:
		return fmt.Sprintf("%s = %d", c.AttrName(p.Attr), p.Lo)
	case p.Lo == MinValue:
		return fmt.Sprintf("%s <= %d", c.AttrName(p.Attr), p.Hi)
	case p.Hi == MaxValue:
		return fmt.Sprintf("%s >= %d", c.AttrName(p.Attr), p.Lo)
	default:
		return fmt.Sprintf("%d <= %s <= %d", p.Lo, c.AttrName(p.Attr), p.Hi)
	}
}

// Matches reports whether row i of the predicate's table satisfies a filter
// (or self-join) predicate. It must not be called on two-table joins.
func (p Pred) Matches(c *Catalog, row int) bool {
	switch p.Kind {
	case FilterPred:
		col := c.AttrColumn(p.Attr)
		if col.IsNull(row) {
			return false
		}
		v := col.Vals[row]
		return v >= p.Lo && v <= p.Hi
	case JoinPred:
		lc, rc := c.AttrColumn(p.Left), c.AttrColumn(p.Right)
		if lc.IsNull(row) || rc.IsNull(row) {
			return false
		}
		return lc.Vals[row] == rc.Vals[row]
	}
	return false
}

// PredsTables returns the union of tables referenced by the predicates at
// positions in set over preds. It walks the set bits and allocates nothing:
// the robust ladder calls it once per request, cached reads included.
func PredsTables(c *Catalog, preds []Pred, set PredSet) TableSet {
	var ts TableSet
	for s := uint64(set); s != 0; s &= s - 1 {
		ts = ts.Union(preds[bits.TrailingZeros64(s)].Tables(c))
	}
	return ts
}

// PredsKey returns a canonical signature for the predicate subset, used as a
// memoization key that is stable under reordering.
func PredsKey(preds []Pred, set PredSet) string {
	keys := make([]string, 0, set.Len())
	for _, i := range set.Indices() {
		keys = append(keys, preds[i].Key())
	}
	sort.Strings(keys)
	return strings.Join(keys, "&")
}

// FormatPreds renders a predicate subset as "p1 AND p2 AND …".
func FormatPreds(c *Catalog, preds []Pred, set PredSet) string {
	parts := make([]string, 0, set.Len())
	for _, i := range set.Indices() {
		parts = append(parts, preds[i].Format(c))
	}
	return strings.Join(parts, " AND ")
}
