package sit

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"condsel/internal/engine"
)

// The reference below is the Key()-string matching that SIT and SIT2D used
// before they indexed expressions by canonical value: a set of formatted
// predicate keys, probed once per position of the conditioning set. The
// property test holds the value-based methods to it bit for bit.

func refKeys(expr []engine.Pred) map[string]bool {
	keys := make(map[string]bool, len(expr))
	for _, p := range expr {
		keys[p.Key()] = true
	}
	return keys
}

func refMatchedSet(keys map[string]bool, preds []engine.Pred, q engine.PredSet) engine.PredSet {
	var m engine.PredSet
	for _, i := range q.Indices() {
		if keys[preds[i].Key()] {
			m = m.Add(i)
		}
	}
	return m
}

func refMatchesSubset(keys map[string]bool, preds []engine.Pred, q engine.PredSet) bool {
	if len(keys) > q.Len() {
		return false
	}
	found := 0
	for _, i := range q.Indices() {
		if keys[preds[i].Key()] {
			found++
		}
	}
	return found == len(keys)
}

func refSubset(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func refID(prefix string, keys map[string]bool) string {
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	return prefix + strings.Join(sorted, "&")
}

// matchUniverse builds a three-table catalog and a predicate universe over
// it: cross-table joins, self-joins (both sides on one table), range
// filters and point filters (Lo == Hi).
func matchUniverse(rng *rand.Rand) (*engine.Catalog, []engine.Pred) {
	cat := engine.NewCatalog()
	for ti := 0; ti < 3; ti++ {
		cols := make([]*engine.Column, 3)
		for ci := range cols {
			cols[ci] = &engine.Column{Name: string(rune('a' + ci)), Vals: []int64{0, 1, 2}}
		}
		cat.MustAddTable(&engine.Table{Name: string(rune('A' + ti)), Cols: cols})
	}
	attr := func() engine.AttrID {
		return cat.AttrsOfTable(engine.TableID(rng.Intn(3)))[rng.Intn(3)]
	}
	var u []engine.Pred
	for len(u) < 10 {
		switch rng.Intn(4) {
		case 0:
			u = append(u, engine.Join(attr(), attr()))
		case 1: // self-join
			cols := cat.AttrsOfTable(engine.TableID(rng.Intn(3)))
			u = append(u, engine.Join(cols[0], cols[1+rng.Intn(2)]))
		case 2: // point filter
			u = append(u, engine.Eq(attr(), int64(rng.Intn(4))))
		default:
			lo := int64(rng.Intn(4))
			u = append(u, engine.Filter(attr(), lo, lo+int64(rng.Intn(3))))
		}
	}
	return cat, u
}

// noise returns p with the fields its kind ignores set to junk: Key() and
// Canon() both disregard them, so the copy must match exactly like p.
func noise(rng *rand.Rand, p engine.Pred) engine.Pred {
	if p.IsJoin() {
		p.Attr, p.Lo, p.Hi = engine.AttrID(rng.Intn(9)), int64(rng.Intn(5)), int64(rng.Intn(5))
	} else {
		p.Left, p.Right = engine.AttrID(rng.Intn(9)), engine.AttrID(rng.Intn(9))
	}
	return p
}

// pick draws n predicates from the universe with replacement, so duplicates
// are common, and dresses some in noise.
func pick(rng *rand.Rand, u []engine.Pred, n int) []engine.Pred {
	out := make([]engine.Pred, n)
	for i := range out {
		out[i] = u[rng.Intn(len(u))]
		if rng.Intn(4) == 0 {
			out[i] = noise(rng, out[i])
		}
	}
	return out
}

// TestPropertyMatchingByCanonicalValue: over generated pools and queries,
// MatchedSet, MatchesSubset and ExprSubsetOf of SIT and SIT2D, and both
// IDs, agree with the Key()-string reference — including duplicate
// predicates in queries and expressions, point filters, self-joins and
// predicates carrying junk in the fields their kind ignores.
func TestPropertyMatchingByCanonicalValue(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1042))
	for trial := 0; trial < 60; trial++ {
		cat, u := matchUniverse(rng)
		preds := pick(rng, u, 4+rng.Intn(5))
		full := engine.FullPredSet(len(preds))

		var sits []*SIT
		var sits2D []*SIT2D
		var keys, keys2D []map[string]bool
		for k := 0; k < 12; k++ {
			expr := pick(rng, u, rng.Intn(4))
			attr := cat.AttrsOfTable(0)[rng.Intn(3)]
			s := NewSIT(cat, attr, expr, nil, 0)
			ks := refKeys(expr)
			if want := refID(fmt.Sprintf("%d|", attr), ks); s.ID() != want {
				t.Fatalf("trial %d: SIT ID %q, want %q", trial, s.ID(), want)
			}
			sits, keys = append(sits, s), append(keys, ks)

			s2 := NewSIT2D(cat, attr, cat.AttrsOfTable(0)[rng.Intn(3)], expr, nil)
			if want := refID(fmt.Sprintf("2d:%d,%d|", s2.X, s2.Y), ks); s2.ID() != want {
				t.Fatalf("trial %d: SIT2D ID %q, want %q", trial, s2.ID(), want)
			}
			sits2D, keys2D = append(sits2D, s2), append(keys2D, ks)
		}

		for q := engine.PredSet(0); q <= full; q++ {
			for k, s := range sits {
				if got, want := s.MatchedSet(preds, q), refMatchedSet(keys[k], preds, q); got != want {
					t.Fatalf("trial %d: SIT %s MatchedSet(%v) = %v, want %v", trial, s.ID(), q, got, want)
				}
				if got, want := s.MatchesSubset(preds, q), refMatchesSubset(keys[k], preds, q); got != want {
					t.Fatalf("trial %d: SIT %s MatchesSubset(%v) = %v, want %v", trial, s.ID(), q, got, want)
				}
				s2 := sits2D[k]
				if got, want := s2.MatchedSet(preds, q), refMatchedSet(keys2D[k], preds, q); got != want {
					t.Fatalf("trial %d: SIT2D %s MatchedSet(%v) = %v, want %v", trial, s2.ID(), q, got, want)
				}
				if got, want := s2.MatchesSubset(preds, q), refMatchesSubset(keys2D[k], preds, q); got != want {
					t.Fatalf("trial %d: SIT2D %s MatchesSubset(%v) = %v, want %v", trial, s2.ID(), q, got, want)
				}
			}
		}
		for a := range sits {
			for b := range sits {
				if got, want := sits[a].ExprSubsetOf(sits[b]), refSubset(keys[a], keys[b]); got != want {
					t.Fatalf("trial %d: SIT %s ExprSubsetOf %s = %v, want %v",
						trial, sits[a].ID(), sits[b].ID(), got, want)
				}
				if got, want := sits2D[a].ExprSubsetOf(sits2D[b]), refSubset(keys2D[a], keys2D[b]); got != want {
					t.Fatalf("trial %d: SIT2D %s ExprSubsetOf %s = %v, want %v",
						trial, sits2D[a].ID(), sits2D[b].ID(), got, want)
				}
			}
		}
	}
}

// TestMatchingAllocatesNothing: the matching methods the error models and
// the candidate index call per scored SIT allocate nothing.
func TestMatchingAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	rng := rand.New(rand.NewSource(7))
	cat, u := matchUniverse(rng)
	preds := pick(rng, u, 8)
	expr := pick(rng, u, 3)
	attr := cat.AttrsOfTable(0)[0]
	s, t2 := NewSIT(cat, attr, expr, nil, 0), NewSIT(cat, attr, u, nil, 0)
	s2, t2D := NewSIT2D(cat, attr, attr, expr, nil), NewSIT2D(cat, attr, attr, u, nil)
	q := engine.FullPredSet(len(preds))

	var sink int
	checks := map[string]func(){
		"SIT.MatchedSet":      func() { sink += s.MatchedSet(preds, q).Len() },
		"SIT.MatchesSubset":   func() { _ = s.MatchesSubset(preds, q) },
		"SIT.ExprSubsetOf":    func() { _ = s.ExprSubsetOf(t2) },
		"SIT2D.MatchedSet":    func() { sink += s2.MatchedSet(preds, q).Len() },
		"SIT2D.MatchesSubset": func() { _ = s2.MatchesSubset(preds, q) },
		"SIT2D.ExprSubsetOf":  func() { _ = s2.ExprSubsetOf(t2D) },
	}
	for name, f := range checks {
		if n := testing.AllocsPerRun(200, f); n != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", name, n)
		}
	}
	_ = sink
}
