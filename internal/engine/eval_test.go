package engine

import (
	"math/rand"
	"sort"
	"testing"
)

// TestCountAgainstBruteForce cross-checks the join-based evaluator against
// full cartesian-product enumeration on many random tiny databases.
func TestCountAgainstBruteForce(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 150; trial++ {
		db := newTestDB(rng, 3, 3, 6, 6)
		preds := db.randomPreds(rng, 1+rng.Intn(2), 1+rng.Intn(2), 6)
		ev := NewEvaluator(db.cat)
		full := FullPredSet(len(preds))
		tables := PredsTables(db.cat, preds, full)
		// Check every subset (including the empty set).
		for set := PredSet(0); set <= full; set++ {
			if !set.SubsetOf(full) {
				continue
			}
			got := ev.Count(tables, preds, set)
			want := bruteCount(db.cat, tables, preds, set)
			if got != want {
				t.Fatalf("trial %d set %v: Count = %v, want %v\npreds: %s",
					trial, set, got, want, FormatPreds(db.cat, preds, full))
			}
		}
	}
}

func TestCountEmptySetIsCrossSize(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	db := newTestDB(rng, 3, 2, 5, 4)
	ev := NewEvaluator(db.cat)
	tables := NewTableSet(0, 1, 2)
	if got, want := ev.Count(tables, nil, 0), db.cat.CrossSize(tables); got != want {
		t.Fatalf("Count(∅) = %v, want %v", got, want)
	}
}

func TestSelectivityBounds(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		db := newTestDB(rng, 3, 2, 6, 5)
		preds := db.randomPreds(rng, 2, 1, 5)
		ev := NewEvaluator(db.cat)
		full := FullPredSet(len(preds))
		tables := PredsTables(db.cat, preds, full)
		sel := ev.Selectivity(tables, preds, full)
		if sel < 0 || sel > 1 {
			t.Fatalf("selectivity %v out of [0,1]", sel)
		}
	}
}

// TestConditionalSelectivityChainRule verifies Property 1 (atomic
// decomposition) exactly: Sel(P,Q) = Sel(P|Q)·Sel(Q).
func TestConditionalSelectivityChainRule(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		db := newTestDB(rng, 3, 2, 6, 4)
		preds := db.randomPreds(rng, 2, 1, 4)
		ev := NewEvaluator(db.cat)
		full := FullPredSet(len(preds))
		tables := PredsTables(db.cat, preds, full)
		full.Subsets(func(p PredSet) {
			q := full.Minus(p)
			selQ := ev.Selectivity(tables, preds, q)
			if selQ == 0 {
				return // conditional undefined
			}
			lhs := ev.Selectivity(tables, preds, full)
			rhs := ev.ConditionalSelectivity(tables, preds, p, q) * selQ
			if diff := lhs - rhs; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("chain rule violated: %v vs %v", lhs, rhs)
			}
		})
	}
}

func TestConditionalSelectivityEmptyDenominator(t *testing.T) {
	t.Parallel()
	c := NewCatalog()
	c.MustAddTable(twoColTable("R", []int64{1, 2}, []int64{1, 2}))
	ra := c.MustAttr("R.a")
	preds := []Pred{Filter(ra, 100, 200), Filter(ra, 1, 1)}
	ev := NewEvaluator(c)
	got := ev.ConditionalSelectivity(NewTableSet(0), preds, NewPredSet(1), NewPredSet(0))
	if got != 0 {
		t.Fatalf("conditional over empty denominator = %v, want 0", got)
	}
}

func TestCountMemoization(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	db := newTestDB(rng, 3, 2, 6, 4)
	preds := db.randomPreds(rng, 2, 2, 4)
	ev := NewEvaluator(db.cat)
	full := FullPredSet(len(preds))
	tables := PredsTables(db.cat, preds, full)

	ev.Count(tables, preds, full)
	evals := ev.Evaluations
	if evals == 0 {
		t.Fatalf("no evaluations recorded")
	}
	ev.Count(tables, preds, full)
	if ev.Evaluations != evals {
		t.Fatalf("repeated Count re-evaluated: %d → %d", evals, ev.Evaluations)
	}
	if ev.CacheSize() == 0 {
		t.Fatalf("cache empty after Count")
	}
	ev.ResetCache()
	if ev.CacheSize() != 0 || ev.Evaluations != 0 {
		t.Fatalf("ResetCache did not clear state")
	}
}

func TestCountPanicsOnForeignTables(t *testing.T) {
	t.Parallel()
	c := NewCatalog()
	c.MustAddTable(twoColTable("R", []int64{1}, []int64{2}))
	c.MustAddTable(twoColTable("S", []int64{1}, []int64{2}))
	ra := c.MustAttr("R.a")
	ev := NewEvaluator(c)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for predicates outside table set")
		}
	}()
	ev.Count(NewTableSet(1), []Pred{Filter(ra, 0, 5)}, NewPredSet(0))
}

// TestAttrValuesAgainstBruteForce projects an attribute over the join result
// and compares with explicit enumeration.
func TestAttrValuesAgainstBruteForce(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		db := newTestDB(rng, 3, 2, 6, 4)
		preds := db.randomPreds(rng, 1, 1+rng.Intn(2), 4)
		full := FullPredSet(len(preds))
		tables := PredsTables(db.cat, preds, full)
		if tables.Empty() {
			continue
		}
		attrTable := tables.Tables()[rng.Intn(tables.Len())]
		attr := db.cat.AttrsOfTable(attrTable)[0]

		ev := NewEvaluator(db.cat)
		got := ev.AttrValues(attr, preds, full)
		want := bruteAttrValues(db.cat, tables, preds, full, attr)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d vs %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: values differ at %d: %d vs %d", trial, i, got[i], want[i])
			}
		}
	}
}

// bruteAttrValues enumerates the component containing attr's table and
// projects attr, mirroring AttrValues semantics (only the connected
// component of the attribute's table shapes the distribution).
func bruteAttrValues(c *Catalog, tables TableSet, preds []Pred, set PredSet, attr AttrID) []int64 {
	at := c.AttrTable(attr)
	var target PredSet
	for _, comp := range Components(c, preds, set) {
		if PredsTables(c, preds, comp).Has(at) {
			target = comp
			break
		}
	}
	compTables := PredsTables(c, preds, target)
	ids := compTables.Tables()
	pos := make(map[TableID]int, len(ids))
	for i, id := range ids {
		pos[id] = i
	}
	col := c.AttrColumn(attr)
	var out []int64
	cursor := make([]int, len(ids))
	var walk func(dim int)
	walk = func(dim int) {
		if dim == len(ids) {
			for _, pi := range target.Indices() {
				p := preds[pi]
				if p.IsJoin() {
					lc, rc := c.AttrColumn(p.Left), c.AttrColumn(p.Right)
					li := cursor[pos[c.AttrTable(p.Left)]]
					ri := cursor[pos[c.AttrTable(p.Right)]]
					if lc.IsNull(li) || rc.IsNull(ri) || lc.Vals[li] != rc.Vals[ri] {
						return
					}
				} else {
					pc := c.AttrColumn(p.Attr)
					ri := cursor[pos[c.AttrTable(p.Attr)]]
					if pc.IsNull(ri) || pc.Vals[ri] < p.Lo || pc.Vals[ri] > p.Hi {
						return
					}
				}
			}
			ai := cursor[pos[at]]
			if !col.IsNull(ai) {
				out = append(out, col.Vals[ai])
			}
			return
		}
		for r := 0; r < c.TableRows(ids[dim]); r++ {
			cursor[dim] = r
			walk(dim + 1)
		}
	}
	walk(0)
	return out
}

func TestAttrValuesEmptyExpression(t *testing.T) {
	t.Parallel()
	c := NewCatalog()
	c.MustAddTable(&Table{Name: "R", Cols: []*Column{
		{Name: "a", Vals: []int64{1, 2, 3}, Null: []bool{false, true, false}},
	}})
	ra := c.MustAttr("R.a")
	ev := NewEvaluator(c)
	vals := ev.AttrValues(ra, nil, 0)
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 3 {
		t.Fatalf("AttrValues over base = %v", vals)
	}
}

func TestAttrValuesPanicsWhenNotCovered(t *testing.T) {
	t.Parallel()
	c := NewCatalog()
	c.MustAddTable(twoColTable("R", []int64{1}, []int64{2}))
	c.MustAddTable(twoColTable("S", []int64{1}, []int64{2}))
	c.MustAddTable(twoColTable("T", []int64{1}, []int64{2}))
	sa, ta := c.MustAttr("S.a"), c.MustAttr("T.a")
	ra := c.MustAttr("R.a")
	ev := NewEvaluator(c)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic when attr table not in expression")
		}
	}()
	ev.AttrValues(ra, []Pred{Join(sa, ta)}, NewPredSet(0))
}

// TestJoinWithNullsDrops ensures dangling (NULL) join keys never match.
func TestJoinWithNullsDrops(t *testing.T) {
	t.Parallel()
	c := NewCatalog()
	c.MustAddTable(&Table{Name: "R", Cols: []*Column{
		{Name: "k", Vals: []int64{1, 2, 3}, Null: []bool{false, true, false}},
	}})
	c.MustAddTable(&Table{Name: "S", Cols: []*Column{
		{Name: "k", Vals: []int64{1, 2, 3}},
	}})
	rk, sk := c.MustAttr("R.k"), c.MustAttr("S.k")
	ev := NewEvaluator(c)
	preds := []Pred{Join(rk, sk)}
	got := ev.Count(NewTableSet(0, 1), preds, NewPredSet(0))
	if got != 2 { // rows 1 and 3 match; NULL row drops
		t.Fatalf("join count = %v, want 2", got)
	}
}

// TestCyclicJoinGraph exercises the post-filter path for cycle-closing
// predicates.
func TestCyclicJoinGraph(t *testing.T) {
	t.Parallel()
	c := NewCatalog()
	c.MustAddTable(twoColTable("R", []int64{1, 2}, []int64{1, 2}))
	c.MustAddTable(twoColTable("S", []int64{1, 2}, []int64{1, 2}))
	c.MustAddTable(twoColTable("T", []int64{1, 2}, []int64{1, 2}))
	ra, sa, ta := c.MustAttr("R.a"), c.MustAttr("S.a"), c.MustAttr("T.a")
	preds := []Pred{Join(ra, sa), Join(sa, ta), Join(ra, ta)}
	ev := NewEvaluator(c)
	got := ev.Count(NewTableSet(0, 1, 2), preds, FullPredSet(3))
	want := bruteCount(c, NewTableSet(0, 1, 2), preds, FullPredSet(3))
	if got != want {
		t.Fatalf("cyclic join count = %v, want %v", got, want)
	}
	if want != 2 {
		t.Fatalf("sanity: brute force = %v, want 2", want)
	}
}

// TestSelfJoinCount: a self-join is counted as a per-row filter on its
// table, alone against a direct scan of the two columns, and beside a
// filter and a join against the brute force.
func TestSelfJoinCount(t *testing.T) {
	t.Parallel()
	c := NewCatalog()
	c.MustAddTable(&Table{Name: "R", Cols: []*Column{
		{Name: "a", Vals: []int64{1, 2, 3, 4, 5, 6}},
		{Name: "b", Vals: []int64{1, 0, 3, 4, 0, 6}, Null: []bool{false, false, false, true, false, false}},
	}})
	c.MustAddTable(twoColTable("S", []int64{1, 3, 3}, []int64{0, 0, 0}))
	ra, rb, sa := c.MustAttr("R.a"), c.MustAttr("R.b"), c.MustAttr("S.a")
	self := Join(ra, rb)
	if !self.SelfJoin(c) {
		t.Fatal("sanity: R.a = R.b is not a self-join")
	}

	colA, colB := c.AttrColumn(ra), c.AttrColumn(rb)
	scan := 0
	for i := range colA.Vals {
		if !colA.IsNull(i) && !colB.IsNull(i) && colA.Vals[i] == colB.Vals[i] {
			scan++
		}
	}
	ev := NewEvaluator(c)
	if got := ev.Count(NewTableSet(0), []Pred{self}, NewPredSet(0)); got != float64(scan) || scan != 3 {
		t.Fatalf("self-join count = %v, direct scan = %d (want 3)", got, scan)
	}

	preds := []Pred{self, Filter(ra, 2, 6), Join(ra, sa)}
	for set := PredSet(1); set <= FullPredSet(len(preds)); set++ {
		tables := PredsTables(c, preds, set)
		if got, want := ev.Count(tables, preds, set), bruteCount(c, tables, preds, set); got != want {
			t.Fatalf("set %v: Count = %v, brute force = %v", set, got, want)
		}
	}
}
