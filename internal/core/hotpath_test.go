package core

import (
	"math/rand"
	"slices"
	"testing"

	"condsel/internal/engine"
	"condsel/internal/sit"
)

// TestCacheEquivalenceHotPath: the hot-path machinery (matcher, component
// index, histogram-join cache, interned chain keys) is a pure optimization —
// with it on (default) and off (NoFastPath), every sub-query returns
// bit-identical selectivity and error, and the identical chosen
// decomposition (via Explain's complete rendering). Checked on the
// motivating fixture and on random databases, for all three error models.
// The fast-path estimator also publishes through a cross-query result cache,
// so the equivalence covers the full cache stack at once.
func TestCacheEquivalenceHotPath(t *testing.T) {
	t.Parallel()
	shared := NewSelCache(1 << 12)

	check := func(t *testing.T, label string, est *Estimator, q *engine.Query) {
		t.Helper()
		off := *est
		off.NoFastPath = true
		off.Cache = nil
		rOn, rOff := est.NewRun(q), off.NewRun(q)
		full := q.All()
		for set := engine.PredSet(1); set <= full; set++ {
			if !set.SubsetOf(full) {
				continue
			}
			a, b := rOn.GetSelectivity(set), rOff.GetSelectivity(set)
			if a.Sel != b.Sel || a.Err != b.Err {
				t.Fatalf("%s: set %v: fast (%v,%v) vs slow (%v,%v)",
					label, set, a.Sel, a.Err, b.Sel, b.Err)
			}
			if ea, eb := rOn.Explain(set), rOff.Explain(set); ea != eb {
				t.Fatalf("%s: set %v: decompositions differ:\n%s\nvs\n%s", label, set, ea, eb)
			}
		}
	}

	f := newFixture(11, 50, 240)
	pool := f.pool(2)
	for _, model := range []ErrorModel{NInd{}, Diff{}, Opt{}} {
		est := NewEstimator(f.cat, pool, model)
		est.Cache = shared
		if model.Name() == "Opt" {
			est.Oracle = f.ev
		}
		check(t, model.Name(), est, f.query)
	}

	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 25; trial++ {
		cat, q, rpool := randomCaseJ(rng, 2)
		ev := engine.NewEvaluator(cat)
		for _, model := range []ErrorModel{NInd{}, Diff{}, Opt{}} {
			est := NewEstimator(cat, rpool, model)
			est.Cache = shared
			est.Oracle = ev
			check(t, model.Name(), est, q)
		}
	}
}

// disconnectedCase builds a database whose query has at least two
// table-disjoint components: a join chain over a prefix of the tables, and
// filters over every table including the unjoined remainder.
func disconnectedCase(rng *rand.Rand) (*engine.Catalog, *engine.Query, *sit.Pool) {
	cat := engine.NewCatalog()
	nTables := 3 + rng.Intn(2)
	for ti := 0; ti < nTables; ti++ {
		rows := 20 + rng.Intn(40)
		cols := make([]*engine.Column, 3)
		for ci := range cols {
			vals := make([]int64, rows)
			for r := range vals {
				vals[r] = int64(rng.Intn(15))
			}
			cols[ci] = &engine.Column{Name: string(rune('a' + ci)), Vals: vals}
		}
		cat.MustAddTable(&engine.Table{Name: string(rune('A' + ti)), Cols: cols})
	}
	var preds []engine.Pred
	joined := 1 + rng.Intn(nTables-2) // tables 0..joined form the chain
	for ti := 1; ti <= joined; ti++ {
		preds = append(preds, engine.Join(
			cat.AttrsOfTable(engine.TableID(ti - 1))[rng.Intn(3)],
			cat.AttrsOfTable(engine.TableID(ti))[rng.Intn(3)]))
	}
	for ti := 0; ti < nTables; ti++ {
		a := cat.AttrsOfTable(engine.TableID(ti))[rng.Intn(3)]
		lo := int64(rng.Intn(15))
		preds = append(preds, engine.Filter(a, lo, lo+int64(rng.Intn(8))))
	}
	q := engine.NewQuery(cat, preds)
	pool := sit.BuildWorkloadPool(sit.NewBuilder(cat), []*engine.Query{q}, 2)
	return cat, q, pool
}

// emptyComponentCase is a fixed database whose query has a table-disjoint
// component that selects no rows: a join A–B with a filter on each side, and
// a filter on C whose range lies outside C's values (0–9).
func emptyComponentCase() (*engine.Catalog, *engine.Query, *sit.Pool) {
	rng := rand.New(rand.NewSource(7))
	cat := engine.NewCatalog()
	for _, name := range []string{"A", "B", "C"} {
		cols := make([]*engine.Column, 3)
		for ci := range cols {
			vals := make([]int64, 40)
			for r := range vals {
				vals[r] = int64(rng.Intn(10))
			}
			cols[ci] = &engine.Column{Name: string(rune('a' + ci)), Vals: vals}
		}
		cat.MustAddTable(&engine.Table{Name: name, Cols: cols})
	}
	q := engine.NewQuery(cat, []engine.Pred{
		engine.Join(cat.MustAttr("A.a"), cat.MustAttr("B.a")),
		engine.Filter(cat.MustAttr("A.b"), 2, 6),
		engine.Filter(cat.MustAttr("B.c"), 0, 4),
		engine.Filter(cat.MustAttr("C.b"), 100, 200),
	})
	pool := sit.BuildWorkloadPool(sit.NewBuilder(cat), []*engine.Query{q}, 1)
	return cat, q, pool
}

// factorResult is one ApproxFactor answer.
type factorResult struct {
	sel, err float64
	sits     []*sit.SIT
}

func factorOf(r *Run, pred int, qq engine.PredSet) factorResult {
	sel, err, sits := r.ApproxFactor(pred, qq)
	return factorResult{sel, err, sits}
}

func (a factorResult) equal(b factorResult) bool {
	return a.sel == b.sel && a.err == b.err && slices.Equal(a.sits, b.sits)
}

// TestPropertySideCondInvariance: NInd and Diff factors ignore conditioning
// predicates that are table-disjoint from the scored predicate. For every
// predicate p of a component and every qq within that component, the raw
// scan's ApproxFactor(p, qq) is unchanged when qq is extended with
// predicates from the other components, because pool expressions are
// connected and anchored at the factor attribute's table, so neither
// candidate matching nor scoring can see them. The greedy chain and
// cascades ask factors under such conditioning sets.
//
// The cases are random disconnected queries plus emptyComponentCase, whose
// disjoint component selects no rows. (Opt is not invariant there: its
// oracle's Sel(p|Q) is 0 when Q selects no rows.)
func TestPropertySideCondInvariance(t *testing.T) {
	t.Parallel()
	type dbCase struct {
		cat  *engine.Catalog
		q    *engine.Query
		pool *sit.Pool
	}
	var cases []dbCase
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 30; trial++ {
		cat, q, pool := disconnectedCase(rng)
		cases = append(cases, dbCase{cat, q, pool})
	}
	cat, q, pool := emptyComponentCase()
	cases = append(cases, dbCase{cat, q, pool})

	for _, model := range []ErrorModel{NInd{}, Diff{}} {
		for k, c := range cases {
			comps := engine.Components(c.cat, c.q.Preds, c.q.All())
			if len(comps) < 2 {
				t.Fatalf("case %d: generator produced a connected query", k)
			}
			est := NewEstimator(c.cat, c.pool, model)
			est.NoFastPath = true
			raw := est.NewRun(c.q)

			for ci, comp := range comps {
				var disj engine.PredSet
				for cj, other := range comps {
					if cj != ci {
						disj = disj.Union(other)
					}
				}
				for _, i := range comp.Indices() {
					rest := comp.Minus(engine.NewPredSet(i))
					for qq := engine.PredSet(0); qq <= rest; qq++ {
						if !qq.SubsetOf(rest) {
							continue
						}
						base := factorOf(raw, i, qq)
						for _, d := range []engine.PredSet{disj, disj & (disj - 1)} {
							if d.Empty() {
								continue
							}
							if ext := factorOf(raw, i, qq.Union(d)); !base.equal(ext) {
								t.Fatalf("%s case %d: ApproxFactor(%d|%v) = (%v,%v) but (%d|%v) = (%v,%v)",
									model.Name(), k, i, qq, base.sel, base.err, i, qq.Union(d), ext.sel, ext.err)
							}
						}
					}
				}
			}
		}
	}
}

// scriptedModel returns 0 for the very first candidate scored and strictly
// positive scores afterwards — the regression scenario for the best-score
// initialization in approxFilter/approxJoin (a 0.0-initialized running
// minimum silently rejects a first candidate scoring exactly 0).
type scriptedModel struct{ calls int }

func (m *scriptedModel) Name() string { return "scripted" }

func (m *scriptedModel) FilterError(r *Run, pred int, cond engine.PredSet, h *sit.SIT) float64 {
	m.calls++
	if m.calls == 1 {
		return 0
	}
	return float64(m.calls)
}

func (m *scriptedModel) JoinError(r *Run, pred int, cond engine.PredSet, hl, hr *sit.SIT) float64 {
	m.calls++
	if m.calls == 1 {
		return 0
	}
	return float64(m.calls)
}

// TestZeroScoreFirstCandidateWins: a first candidate scoring exactly 0 is
// chosen, with error 0 — for filters and for join pairs.
func TestZeroScoreFirstCandidateWins(t *testing.T) {
	t.Parallel()
	f := newFixture(5, 50, 240)
	// J1: SIT(price|joinLO) and SIT(price|joinOC) are incomparable, so a
	// two-join conditioning set yields two maximal candidates.
	pool := f.pool(1)

	cond := engine.NewPredSet(f.joinLO).Add(f.joinOC)
	r := NewEstimator(f.cat, pool, &scriptedModel{}).NewRun(f.query)
	cands := r.candidates(f.query.Preds[f.fPrice].Attr, cond)
	if len(cands) < 2 {
		t.Fatalf("want ≥2 filter candidates, got %d", len(cands))
	}
	if _, err, chosen := r.approxFilter(f.fPrice, cond); chosen != cands[0] || err != 0 {
		t.Fatalf("filter: chosen %v err %v, want first candidate with err 0", chosen, err)
	}

	jcond := engine.NewPredSet(f.joinOC)
	r = NewEstimator(f.cat, pool, &scriptedModel{}).NewRun(f.query)
	p := f.query.Preds[f.joinLO]
	cl := r.candidates(p.Left, jcond)
	cr := r.candidates(p.Right, jcond)
	if len(cl) == 0 || len(cr) == 0 {
		t.Fatalf("want join candidates on both sides, got %d×%d", len(cl), len(cr))
	}
	if _, err, hl, hr := r.approxJoin(f.joinLO, jcond); hl != cl[0] || hr != cr[0] || err != 0 {
		t.Fatalf("join: chose (%v,%v) err %v, want first pair with err 0", hl, hr, err)
	}
}

// TestConcatLess: segment-pair comparison agrees with comparing the real
// concatenations, across crafted edge cases and random strings.
func TestConcatLess(t *testing.T) {
	t.Parallel()
	cases := [][4]string{
		{"", "", "", ""},
		{"a", "", "", "a"},
		{"ab", "c", "a", "bc"},
		{"ab", "c", "ab", "cd"},
		{"ab", "cd", "ab", "c"},
		{"0a", "x.", "1", "x."},
		{"abc", "", "ab", "d"},
		{"", "zz", "z", "z"},
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		var c [4]string
		for j := range c {
			b := make([]byte, rng.Intn(6))
			for k := range b {
				b[k] = "ab."[rng.Intn(3)]
			}
			c[j] = string(b)
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		want := c[0]+c[1] < c[2]+c[3]
		if got := concatLess(c[0], c[1], c[2], c[3]); got != want {
			t.Fatalf("concatLess(%q,%q,%q,%q) = %v, want %v", c[0], c[1], c[2], c[3], got, want)
		}
	}
}
