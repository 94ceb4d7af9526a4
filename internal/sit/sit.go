// Package sit implements statistics on query expressions (SITs): histograms
// built over the result of executing a join expression, as introduced in
// Bruno & Chaudhuri (SIGMOD'02) and exploited by the conditional-selectivity
// framework of the reproduced paper. It provides the SIT type, a builder
// that executes expressions and derives the per-SIT diff value (§3.5), and
// pools with the candidate-matching rules of §3.3 (attribute coverage,
// expression containment, maximality).
package sit

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"condsel/internal/engine"
	"condsel/internal/histogram"
)

// SIT is a statistic on a query expression: a histogram over attribute Attr
// built on the result of σ_Expr(tables(Expr)^×). An empty Expr denotes an
// ordinary base-table histogram. Diff is the variation distance between the
// SIT's distribution and the base distribution of Attr, computed once at
// build time (§3.5); base histograms have Diff 0 by definition.
type SIT struct {
	Attr   engine.AttrID
	Expr   []engine.Pred // join predicates of the generating expression
	Tables engine.TableSet
	Hist   *histogram.Histogram
	Diff   float64

	exprSet exprSet // canonical predicate values of Expr
	id      string  // canonical identity, precomputed (ID is hot)
}

// exprSet lists an expression's distinct predicates by canonical value
// (Pred.Canon). Equal Key() strings and equal canonical forms coincide, so
// membership by value answers exactly what a Key()-keyed set would, without
// formatting a string per test. Pool expressions hold at most a few
// predicates, so a linear scan of a slice beats hashing the 48-byte value.
type exprSet []engine.Pred

// has reports whether the canonical predicate c is a member.
func (e exprSet) has(c engine.Pred) bool {
	for _, p := range e {
		if p == c {
			return true
		}
	}
	return false
}

// newExprSet indexes expr and returns the set with its sorted distinct
// Key() strings — the material of a statistic's canonical ID, formatted
// once at construction.
func newExprSet(expr []engine.Pred) (exprSet, []string) {
	set := make(exprSet, 0, len(expr))
	keys := make([]string, 0, len(expr))
	for _, p := range expr {
		if c := p.Canon(); !set.has(c) {
			set = append(set, c)
			keys = append(keys, p.Key())
		}
	}
	sort.Strings(keys)
	return set, keys
}

// matched returns the positions within q whose predicates belong to the
// set. It walks q's bits directly and allocates nothing.
func (e exprSet) matched(preds []engine.Pred, q engine.PredSet) engine.PredSet {
	var m engine.PredSet
	for b := uint64(q); b != 0; b &= b - 1 {
		i := bits.TrailingZeros64(b)
		if e.has(preds[i].Canon()) {
			m = m.Add(i)
		}
	}
	return m
}

// coveredBy reports whether every member of the set appears among q's
// predicates. It counts matching positions, so two positions holding the
// same predicate count twice: the Matcher's popcount test is the same
// count, and the two must agree.
func (e exprSet) coveredBy(preds []engine.Pred, q engine.PredSet) bool {
	if len(e) > q.Len() {
		return false
	}
	return e.matched(preds, q).Len() == len(e)
}

// subsetOf reports whether every member of e is a member of f.
func (e exprSet) subsetOf(f exprSet) bool {
	if len(e) > len(f) {
		return false
	}
	for _, p := range e {
		if !f.has(p) {
			return false
		}
	}
	return true
}

// NewSIT assembles a SIT from its parts, deriving the table set, the
// canonical-value expression index and the canonical ID.
func NewSIT(c *engine.Catalog, attr engine.AttrID, expr []engine.Pred, h *histogram.Histogram, diff float64) *SIT {
	s := &SIT{Attr: attr, Expr: expr, Hist: h, Diff: diff}
	s.Tables = engine.NewTableSet(c.AttrTable(attr))
	for _, p := range expr {
		s.Tables = s.Tables.Union(p.Tables(c))
	}
	var keys []string
	s.exprSet, keys = newExprSet(expr)
	//lint:ignore hotalloc construction only: a SIT's ID is formatted once, when the statistic is built or derived
	s.id = fmt.Sprintf("%d|%s", s.Attr, strings.Join(keys, "&"))
	return s
}

// IsBase reports whether the SIT is a plain base-table histogram.
func (s *SIT) IsBase() bool { return len(s.Expr) == 0 }

// ExprSize returns the number of predicates in the generating expression.
func (s *SIT) ExprSize() int { return len(s.Expr) }

// ID returns a canonical identity string: attribute plus sorted expression
// keys. Two SITs with equal IDs are built over the same expression. The
// string is precomputed at construction — the cross-query histogram-join
// cache keys on it in the estimation hot path.
func (s *SIT) ID() string { return s.id }

// Name renders the SIT in the paper's notation, e.g.
// "SIT(orders.price | lineitem.oid = orders.id)".
func (s *SIT) Name(c *engine.Catalog) string {
	if s.IsBase() {
		return fmt.Sprintf("H(%s)", c.AttrName(s.Attr))
	}
	parts := make([]string, len(s.Expr))
	for i, p := range s.Expr {
		parts[i] = p.Format(c)
	}
	return fmt.Sprintf("SIT(%s | %s)", c.AttrName(s.Attr), strings.Join(parts, " & "))
}

// MatchesSubset reports whether every predicate of the SIT's expression
// appears (structurally) within the predicate subset q of preds. This is
// the `Q' ⊆ Q` containment test of §3.3.
func (s *SIT) MatchesSubset(preds []engine.Pred, q engine.PredSet) bool {
	return s.exprSet.coveredBy(preds, q)
}

// ExprSubsetOf reports whether s's expression is a (possibly equal) subset
// of t's expression.
func (s *SIT) ExprSubsetOf(t *SIT) bool { return s.exprSet.subsetOf(t.exprSet) }

// MatchedSet returns the positions within q whose predicates belong to the
// SIT's expression — the Q' actually covered by the SIT. The error models
// call it for every candidate they score, so it allocates nothing.
func (s *SIT) MatchedSet(preds []engine.Pred, q engine.PredSet) engine.PredSet {
	return s.exprSet.matched(preds, q)
}
