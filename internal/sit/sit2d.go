package sit

import (
	"fmt"
	"sort"
	"strings"

	"condsel/internal/engine"
	"condsel/internal/histogram"
)

// SIT2D is a two-dimensional statistic on a query expression: a joint
// histogram over (X, Y) built on the result of σ_Expr, where X is typically
// a join column and Y a dependent filter attribute (both on the same
// table). §3.3 Example 3 uses exactly this shape — SIT(R.x, R.a|Q) — to
// derive SIT(R.a | R.x=·, Q) through a histogram join. An empty Expr is a
// plain two-dimensional base histogram.
type SIT2D struct {
	X, Y   engine.AttrID
	Expr   []engine.Pred
	Tables engine.TableSet
	Hist   *histogram.Hist2D

	exprSet exprSet // canonical predicate values of Expr
	id      string  // canonical identity, precomputed
}

// NewSIT2D assembles a 2-D SIT, deriving the table set, the canonical-value
// expression index and the canonical ID.
func NewSIT2D(c *engine.Catalog, x, y engine.AttrID, expr []engine.Pred, h *histogram.Hist2D) *SIT2D {
	s := &SIT2D{X: x, Y: y, Expr: expr, Hist: h}
	s.Tables = engine.NewTableSet(c.AttrTable(x), c.AttrTable(y))
	for _, p := range expr {
		s.Tables = s.Tables.Union(p.Tables(c))
	}
	var keys []string
	s.exprSet, keys = newExprSet(expr)
	s.id = fmt.Sprintf("2d:%d,%d|%s", s.X, s.Y, strings.Join(keys, "&"))
	return s
}

// ExprSize returns the number of predicates in the generating expression.
func (s *SIT2D) ExprSize() int { return len(s.Expr) }

// ID returns a canonical identity for deduplication.
func (s *SIT2D) ID() string { return s.id }

// Name renders the SIT in the paper's notation, e.g. "SIT(R.x, R.a | …)".
func (s *SIT2D) Name(c *engine.Catalog) string {
	if len(s.Expr) == 0 {
		return fmt.Sprintf("H(%s, %s)", c.AttrName(s.X), c.AttrName(s.Y))
	}
	parts := make([]string, len(s.Expr))
	for i, p := range s.Expr {
		parts[i] = p.Format(c)
	}
	return fmt.Sprintf("SIT(%s, %s | %s)", c.AttrName(s.X), c.AttrName(s.Y),
		strings.Join(parts, " & "))
}

// MatchesSubset reports whether the SIT's expression is contained in the
// predicate subset q (structural identity).
func (s *SIT2D) MatchesSubset(preds []engine.Pred, q engine.PredSet) bool {
	return s.exprSet.coveredBy(preds, q)
}

// ExprSubsetOf reports whether s's expression is a (possibly equal) subset
// of t's expression.
func (s *SIT2D) ExprSubsetOf(t *SIT2D) bool { return s.exprSet.subsetOf(t.exprSet) }

// MatchedSet returns the positions within q covered by the expression.
func (s *SIT2D) MatchedSet(preds []engine.Pred, q engine.PredSet) engine.PredSet {
	return s.exprSet.matched(preds, q)
}

// Build2D constructs SIT2D(x, y | expr). Both attributes must be on the
// same table; the expression (possibly empty) must cover that table when
// non-empty.
func (b *Builder) Build2D(x, y engine.AttrID, expr []engine.Pred) (*SIT2D, error) {
	if b.Cat.AttrTable(x) != b.Cat.AttrTable(y) {
		return nil, fmt.Errorf("sit: 2-D SIT attributes must share a table, got %s and %s",
			b.Cat.AttrName(x), b.Cat.AttrName(y))
	}
	var xs, ys []int64
	var total float64
	if len(expr) == 0 {
		xCol, yCol := b.Cat.AttrColumn(x), b.Cat.AttrColumn(y)
		n := len(xCol.Vals)
		total = float64(n)
		for i := 0; i < n; i++ {
			if xCol.IsNull(i) || yCol.IsNull(i) {
				continue
			}
			xs = append(xs, xCol.Vals[i])
			ys = append(ys, yCol.Vals[i])
		}
	} else {
		view := b.Ev.Materialize(expr, engine.FullPredSet(len(expr)))
		total = float64(view.Count())
		xs, ys = view.AttrPairs(x, y)
	}
	xDim, yDim := gridDims(b.buckets())
	h, err := histogram.Build2D(xs, ys, xDim, yDim)
	if err != nil {
		return nil, err
	}
	h.TotalRows = total
	return NewSIT2D(b.Cat, x, y, expr, h), nil
}

// gridDims spreads a 1-D bucket budget over the two dimensions
// asymmetrically: the join column (x) gets ~√budget coarse stripes — join
// estimation aggregates whole stripes anyway — while the dependent filter
// attribute (y) keeps budget/2 stripes so derived conditional range
// estimates stay sharp.
func gridDims(buckets int) (xDim, yDim int) {
	xDim = 1
	for (xDim+1)*(xDim+1) <= buckets {
		xDim++
	}
	if xDim < 4 {
		xDim = 4
	}
	yDim = buckets / 2
	if yDim < xDim {
		yDim = xDim
	}
	return xDim, yDim
}

// Add2D inserts a 2-D SIT unless an identical one is present; it reports
// whether the SIT was added. Like Add, it checks the histogram first: a grid
// that fails Hist2D.Validate is not added; it is recorded as quarantined
// with the reason, so Health surfaces the rejection.
func (p *Pool) Add2D(s *SIT2D) bool {
	id := s.ID()
	if _, dup := p.byID2D[id]; dup {
		return false
	}
	if err := s.Hist.Validate(); err != nil {
		p.quarantine(id, "histogram: "+err.Error())
		return false
	}
	if p.byID2D == nil {
		p.byID2D = make(map[string]*SIT2D)
		p.by2D = make(map[[2]engine.AttrID][]*SIT2D)
	}
	p.byID2D[id] = s
	key := [2]engine.AttrID{s.X, s.Y}
	p.by2D[key] = append(p.by2D[key], s)
	p.gen.Store(poolGen.Add(1))
	return true
}

// Size2D returns the number of 2-D SITs in the pool.
func (p *Pool) Size2D() int { return len(p.byID2D) }

// Candidates2D returns the 2-D SITs over (x, y) whose expressions are
// contained in q and maximal, mirroring Candidates. Each invocation counts
// as one view-matching call.
func (p *Pool) Candidates2D(preds []engine.Pred, x, y engine.AttrID, q engine.PredSet) []*SIT2D {
	p.matchCalls.Add(1)
	var matching []*SIT2D
	for _, s := range p.by2D[[2]engine.AttrID{x, y}] {
		if s.MatchesSubset(preds, q) {
			matching = append(matching, s)
		}
	}
	var out []*SIT2D
	for _, s := range matching {
		maximal := true
		for _, t := range matching {
			if t != s && t.ExprSize() > s.ExprSize() && s.ExprSubsetOf(t) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Build2DBaseSITs adds, for every workload query, the base 2-D histograms
// pairing each join column with each filter attribute of the same table —
// the statistics the Example 3 derivation consumes. Returns the number of
// SITs added.
func Build2DBaseSITs(b *Builder, pool *Pool, queries []*engine.Query) (int, error) {
	type pair struct{ x, y engine.AttrID }
	seen := make(map[pair]bool)
	added := 0
	for _, q := range queries {
		var joinAttrs, filterAttrs []engine.AttrID
		for _, p := range q.Preds {
			if p.IsJoin() {
				joinAttrs = append(joinAttrs, p.Left, p.Right)
			} else {
				filterAttrs = append(filterAttrs, p.Attr)
			}
		}
		for _, x := range joinAttrs {
			for _, y := range filterAttrs {
				if x == y || b.Cat.AttrTable(x) != b.Cat.AttrTable(y) {
					continue
				}
				key := pair{x, y}
				if seen[key] {
					continue
				}
				seen[key] = true
				s, err := b.Build2D(x, y, nil)
				if err != nil {
					return added, err
				}
				if pool.Add2D(s) {
					added++
				}
			}
		}
	}
	return added, nil
}
