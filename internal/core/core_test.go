package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"condsel/internal/datagen"
	"condsel/internal/engine"
	"condsel/internal/histogram"
	"condsel/internal/sit"
	"condsel/internal/workload"
)

// fixture is the §1 motivating scenario in miniature: customers with a
// skewed nation, orders with prices, line items whose multiplicity is
// correlated with order price.
type fixture struct {
	cat   *engine.Catalog
	query *engine.Query
	ev    *engine.Evaluator

	price, nation   engine.AttrID
	joinLO, joinOC  int // predicate positions
	fPrice, fNation int
}

func newFixture(seed int64, nCustomers, nOrders int) *fixture {
	rng := rand.New(rand.NewSource(seed))
	cat := engine.NewCatalog()

	cid := make([]int64, nCustomers)
	nation := make([]int64, nCustomers)
	for i := range cid {
		cid[i] = int64(i)
		if rng.Float64() < 0.8 {
			nation[i] = 1 // most customers share a nation
		} else {
			nation[i] = int64(2 + rng.Intn(20))
		}
	}
	cat.MustAddTable(&engine.Table{Name: "customer", Cols: []*engine.Column{
		{Name: "id", Vals: cid},
		{Name: "nation", Vals: nation},
	}})

	oid := make([]int64, nOrders)
	ocid := make([]int64, nOrders)
	price := make([]int64, nOrders)
	var liOID, liQty []int64
	for i := range oid {
		oid[i] = int64(i)
		ocid[i] = int64(rng.Intn(nCustomers))
		price[i] = int64(rng.Intn(1000))
		items := 1
		if price[i] > 800 { // expensive orders: many line items (Zipf-ish skew)
			items = 15
		}
		for k := 0; k < items; k++ {
			liOID = append(liOID, oid[i])
			liQty = append(liQty, int64(rng.Intn(50)))
		}
	}
	cat.MustAddTable(&engine.Table{Name: "orders", Cols: []*engine.Column{
		{Name: "id", Vals: oid},
		{Name: "cid", Vals: ocid},
		{Name: "price", Vals: price},
	}})
	cat.MustAddTable(&engine.Table{Name: "lineitem", Cols: []*engine.Column{
		{Name: "oid", Vals: liOID},
		{Name: "qty", Vals: liQty},
	}})

	f := &fixture{
		cat:    cat,
		ev:     engine.NewEvaluator(cat),
		price:  cat.MustAttr("orders.price"),
		nation: cat.MustAttr("customer.nation"),
	}
	preds := []engine.Pred{
		engine.Join(cat.MustAttr("lineitem.oid"), cat.MustAttr("orders.id")), // 0
		engine.Join(cat.MustAttr("orders.cid"), cat.MustAttr("customer.id")), // 1
		engine.Filter(f.price, 801, 1000),                                    // 2
		engine.Eq(f.nation, 1),                                               // 3
	}
	f.joinLO, f.joinOC, f.fPrice, f.fNation = 0, 1, 2, 3
	f.query = engine.NewQuery(cat, preds)
	return f
}

// pool builds J_maxJoins for the fixture query.
func (f *fixture) pool(maxJoins int) *sit.Pool {
	b := sit.NewBuilder(f.cat)
	return sit.BuildWorkloadPool(b, []*engine.Query{f.query}, maxJoins)
}

func (f *fixture) trueCard(set engine.PredSet) float64 {
	tables := engine.PredsTables(f.cat, f.query.Preds, set)
	return f.ev.Count(tables, f.query.Preds, set)
}

func TestGetSelectivityBasics(t *testing.T) {
	t.Parallel()
	f := newFixture(1, 60, 300)
	est := NewEstimator(f.cat, f.pool(2), NInd{})
	r := est.NewRun(f.query)

	empty := r.GetSelectivity(0)
	if empty.Sel != 1 || empty.Err != 0 {
		t.Fatalf("empty set: %+v", empty)
	}
	res := r.decompose(f.query.All())
	if res.Sel < 0 || res.Sel > 1 {
		t.Fatalf("selectivity out of range: %v", res.Sel)
	}
	if math.IsInf(res.Err, 1) {
		t.Fatalf("no decomposition found")
	}
	if len(res.factors) == 0 {
		t.Fatalf("no factors recorded")
	}
	// Memoization: same pointer on repeat.
	if r.decompose(f.query.All()) != res {
		t.Fatalf("memoization failed")
	}
}

func TestGetSelectivityPanicsOutsideQuery(t *testing.T) {
	t.Parallel()
	f := newFixture(2, 20, 50)
	est := NewEstimator(f.cat, f.pool(0), NInd{})
	r := est.NewRun(f.query)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for foreign predicate set")
		}
	}()
	r.GetSelectivity(engine.FullPredSet(10))
}

// TestSeparableMultiplies: a predicate set with two table-disjoint parts
// must decompose into the product of the parts.
func TestSeparableMultiplies(t *testing.T) {
	t.Parallel()
	f := newFixture(3, 60, 300)
	est := NewEstimator(f.cat, f.pool(1), NInd{})
	r := est.NewRun(f.query)
	// {price filter} ∪ {nation filter} touch disjoint tables.
	sep := engine.NewPredSet(f.fPrice, f.fNation)
	res := r.GetSelectivity(sep)
	p1 := r.GetSelectivity(engine.NewPredSet(f.fPrice))
	p2 := r.GetSelectivity(engine.NewPredSet(f.fNation))
	if !close(res.Sel, p1.Sel*p2.Sel, 1e-12) {
		t.Fatalf("separable: %v vs %v·%v", res.Sel, p1.Sel, p2.Sel)
	}
	if !close(res.Err, p1.Err+p2.Err, 1e-12) {
		t.Fatalf("separable error: %v vs %v+%v", res.Err, p1.Err, p2.Err)
	}
}

// TestNoSitEqualsIndependence: over the base-only pool J₀, getSelectivity
// must coincide with the classic independence-assumption estimate — the
// product of per-predicate base-histogram selectivities.
func TestNoSitEqualsIndependence(t *testing.T) {
	t.Parallel()
	f := newFixture(4, 60, 300)
	pool := f.pool(0)
	est := NewEstimator(f.cat, pool, NInd{})
	r := est.NewRun(f.query)
	got := r.GetSelectivity(f.query.All()).Sel

	want := 1.0
	for i, p := range f.query.Preds {
		_ = i
		if p.IsJoin() {
			// Base histograms joined.
			hl := pool.Base(p.Left)
			hr := pool.Base(p.Right)
			want *= histJoinSel(hl, hr)
		} else {
			want *= pool.Base(p.Attr).Hist.EstimateRange(p.Lo, p.Hi)
		}
	}
	if !close(got, want, 1e-9) {
		t.Fatalf("GS over J0 = %v, independence product = %v", got, want)
	}
}

// TestSITsImproveCardinalityEstimate reproduces the paper's §1 story: with
// correlated skew, the estimate using SITs over join expressions must be
// substantially closer to the true cardinality than the base-only estimate.
func TestSITsImproveCardinalityEstimate(t *testing.T) {
	t.Parallel()
	f := newFixture(5, 80, 500)
	truth := f.trueCard(f.query.All())
	if truth == 0 {
		t.Skip("degenerate fixture: empty result")
	}
	base := NewEstimator(f.cat, f.pool(0), NInd{})
	withSits := NewEstimator(f.cat, f.pool(2), Diff{})

	errBase := absDiff(base.NewRun(f.query).EstimateCardinality(f.query.All()), truth)
	errSits := absDiff(withSits.NewRun(f.query).EstimateCardinality(f.query.All()), truth)
	if errSits > errBase*0.6 {
		t.Fatalf("SITs should cut the error substantially: base err %v, SIT err %v (truth %v)",
			errBase, errSits, truth)
	}
}

// TestSingletonEqualsExhaustive: the served search, which only tries
// single-predicate heads, returns the same selectivity and error as the
// paper's full O(3ⁿ) loop (bruteBest) on every subset of the motivating
// fixtures, for every error model.
func TestSingletonEqualsExhaustive(t *testing.T) {
	t.Parallel()
	var cases []searchCase
	for seed := int64(10); seed < 16; seed++ {
		f := newFixture(seed, 40, 200)
		cases = append(cases, searchCase{f.cat, f.query, f.pool(2)})
	}
	checkSearchAgainstBrute(t, cases)
}

// TestDPOptimality (Theorem 1): the memoised search with single-predicate
// heads and the separable shortcut finds the same minimum-error
// decomposition as bruteBest, Figure 3 as printed, on every subset of a
// motivating fixture and of random queries, for every error model.
func TestDPOptimality(t *testing.T) {
	t.Parallel()
	f := newFixture(20, 40, 200)
	cases := []searchCase{{f.cat, f.query, f.pool(2)}}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		cat, q, pool := randomCase(rng)
		cases = append(cases, searchCase{cat, q, pool})
	}
	checkSearchAgainstBrute(t, cases)
}

type searchCase struct {
	cat  *engine.Catalog
	q    *engine.Query
	pool *sit.Pool
}

// checkSearchAgainstBrute compares GetSelectivity with bruteBest on every
// non-empty subset of each case's query, for nInd, Diff and Opt.
func checkSearchAgainstBrute(t *testing.T, cases []searchCase) {
	t.Helper()
	for k, c := range cases {
		ev := engine.NewEvaluator(c.cat)
		for _, model := range []ErrorModel{NInd{}, Diff{}, Opt{}} {
			est := NewEstimator(c.cat, c.pool, model)
			est.Oracle = ev
			r := est.NewRun(c.q)
			full := c.q.All()
			for set := engine.PredSet(1); set <= full; set++ {
				if !set.SubsetOf(full) {
					continue
				}
				got := r.GetSelectivity(set)
				wantSel, wantErr := bruteBest(r, set)
				if !close(got.Err, wantErr, 1e-9) || !close(got.Sel, wantSel, 1e-9) {
					t.Fatalf("case %d model %s set %v: DP (%v,%v), brute force (%v,%v)",
						k, model.Name(), set, got.Sel, got.Err, wantSel, wantErr)
				}
			}
		}
	}
}

// bruteBest is Figure 3 as printed: it enumerates every chain of atomic
// decompositions Sel(P'|Q)·Sel(Q) over every non-empty P' ⊆ set (no memo, no
// separable shortcut) and returns the selectivity and error of a
// minimum-error chain, breaking error ties on a canonical chain key that
// orders single-predicate heads like the DP's and multi-predicate heads after
// them.
func bruteBest(r *Run, set engine.PredSet) (sel, err float64) {
	r.ensureChainKeys()
	sel, err, _ = bruteBestKeyed(r, set)
	return sel, err
}

func bruteBestKeyed(r *Run, set engine.PredSet) (sel, err float64, key string) {
	if set.Empty() {
		return 1, 0, ""
	}
	best := math.Inf(1)
	bestSel := 0.0
	bestKey := ""
	set.Subsets(func(pp engine.PredSet) {
		qq := set.Minus(pp)
		selQ, errQ, keyQ := bruteBestKeyed(r, qq)
		selF, errF := chainFactor(r, pp, qq)
		cand, candSel := errF+errQ, selF*selQ
		head := "1" + engine.PredsKey(r.Query.Preds, pp) + "."
		if pp.Len() == 1 {
			head = r.chainHead(pp.Indices()[0])
		}
		candKey := head + keyQ
		tol := 1e-9 * (1 + math.Abs(best))
		if math.IsInf(best, 1) || cand < best-tol || (cand <= best+tol && candKey < bestKey) {
			best, bestSel, bestKey = cand, candSel, candKey
		}
	})
	return bestSel, best, bestKey
}

// chainFactor approximates the factor Sel(pp|qq) the way §3.3 chains a
// multi-predicate factor over unidimensional SITs: join predicates first,
// then filters, each one single-predicate ApproxFactor whose conditioning
// set grows by the predicates already processed. Selectivities multiply and
// errors add up.
func chainFactor(r *Run, pp, qq engine.PredSet) (sel, err float64) {
	sel, cond := 1.0, qq
	for _, joins := range []bool{true, false} {
		for _, i := range pp.Indices() {
			if r.Query.Preds[i].IsJoin() != joins {
				continue
			}
			selF, errF, _ := r.ApproxFactor(i, cond)
			sel *= selF
			err += errF
			cond = cond.Add(i)
		}
	}
	return sel, err
}

func TestOptModelIsBestAmongModels(t *testing.T) {
	t.Parallel()
	f := newFixture(30, 60, 300)
	pool := f.pool(2)
	truth := f.trueCard(f.query.All())
	if truth == 0 {
		t.Skip("degenerate fixture")
	}
	errOf := func(model ErrorModel) float64 {
		est := NewEstimator(f.cat, pool, model)
		est.Oracle = f.ev
		return absDiff(est.NewRun(f.query).EstimateCardinality(f.query.All()), truth)
	}
	errOpt := errOf(Opt{})
	errNInd := errOf(NInd{})
	errDiff := errOf(Diff{})
	// Opt picks per-factor-optimal SITs; it must not lose to the heuristics
	// by more than noise.
	if errOpt > errNInd*1.05+1 && errOpt > errDiff*1.05+1 {
		t.Fatalf("Opt (%v) worse than both nInd (%v) and Diff (%v)", errOpt, errNInd, errDiff)
	}
}

func TestExplainMentionsChosenSITs(t *testing.T) {
	t.Parallel()
	f := newFixture(40, 60, 300)
	est := NewEstimator(f.cat, f.pool(2), Diff{})
	r := est.NewRun(f.query)
	out := r.Explain(f.query.All())
	if !strings.Contains(out, "Sel(") || !strings.Contains(out, "model Diff") {
		t.Fatalf("Explain output unexpected:\n%s", out)
	}
	if !strings.Contains(out, "SIT(") && !strings.Contains(out, "H(") {
		t.Fatalf("Explain lists no statistics:\n%s", out)
	}
}

// TestSITsReadNamesTheDecomposition: SITsRead returns the pool statistics
// that Explain names, one per non-fallback read, the same on a cache hit as
// on the computing run, and none when every factor falls back.
func TestSITsReadNamesTheDecomposition(t *testing.T) {
	t.Parallel()
	f := newFixture(41, 60, 300)
	pool := f.pool(2)
	est := NewEstimator(f.cat, pool, Diff{})
	est.Cache = NewSelCache(1 << 10)
	full := f.query.All()
	for set := engine.PredSet(1); set <= full; set++ {
		if !set.SubsetOf(full) {
			continue
		}
		cold := est.NewRun(f.query)
		read := cold.SITsRead(set)
		out := cold.Explain(set)
		cold.Release()
		if want := strings.Count(out, "H(") + strings.Count(out, "SIT("); len(read) != want {
			t.Fatalf("set %b: %d statistics read, Explain names %d:\n%s", set, len(read), want, out)
		}
		for _, s := range read {
			if pool.Lookup(s.ID()) != s || !strings.Contains(out, s.Name(f.cat)) {
				t.Fatalf("set %b: %s is not a pool statistic Explain names:\n%s", set, s.Name(f.cat), out)
			}
		}
		warm := est.NewRun(f.query)
		if hit := warm.SITsRead(set); !slices.Equal(hit, read) {
			t.Fatalf("set %b: a cache hit reads %v, the computing run %v", set, hit, read)
		}
		warm.Release()
	}
	empty := NewEstimator(f.cat, sit.NewPool(f.cat), Diff{}).NewRun(f.query)
	if read := empty.SITsRead(full); len(read) != 0 {
		t.Fatalf("an all-fallback decomposition reads %d statistics", len(read))
	}
}

// TestSITsReadNamesDerivedSource: a derived SIT (§3.3 Example 3) is read
// through its Source, the pool statistic its 2-D input was joined against.
// SITsRead returns the Source in the derived SIT's place, on the computing
// run and on a cache hit, including Sources that no other factor reads.
func TestSITsReadNamesDerivedSource(t *testing.T) {
	t.Parallel()
	db := datagen.Generate(datagen.Config{Seed: 31, FactRows: 1500})
	queries, err := workload.NewGenerator(db, workload.Config{Seed: 31, NumQueries: 6, Joins: 2, Filters: 2}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	b := sit.NewBuilder(db.Cat)
	pool := sit.BuildWorkloadPool(b, queries, 1)
	if _, err := sit.Build2DBaseSITs(b, pool, queries); err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(db.Cat, pool, Diff{})
	est.Cache = NewSelCache(1 << 12)
	onlyViaSource := 0
	for qi, q := range queries {
		run := est.NewRun(q)
		var want, stored, sources []*sit.SIT
		for _, f := range run.decompose(q.All()).factors {
			for _, s := range f.SITs {
				switch {
				case s == nil:
					continue
				case pool.Lookup(s.ID()) == s:
					stored = append(stored, s)
				case s.Source == nil || pool.Lookup(s.Source.ID()) != s.Source:
					t.Fatalf("query %d: %s is neither a pool statistic nor derived from one", qi, s.Name(db.Cat))
				default:
					sources = append(sources, s.Source)
					s = s.Source
				}
				want = append(want, s)
			}
		}
		read := run.SITsRead(q.All())
		run.Release()
		warm := est.NewRun(q)
		hit := warm.SITsRead(q.All())
		warm.Release()
		if !slices.Equal(read, want) || !slices.Equal(hit, want) {
			names := func(ss []*sit.SIT) []string {
				out := make([]string, len(ss))
				for i, s := range ss {
					out[i] = s.Name(db.Cat)
				}
				return out
			}
			t.Fatalf("query %d: SITsRead %v, on a cache hit %v, want %v", qi, names(read), names(hit), names(want))
		}
		for _, src := range sources {
			if !slices.Contains(stored, src) {
				onlyViaSource++
			}
		}
	}
	if onlyViaSource == 0 {
		t.Fatal("every derived SIT's Source is also read directly; the fixture cannot tell the rules apart")
	}
}

func TestFallbackWhenPoolEmpty(t *testing.T) {
	t.Parallel()
	f := newFixture(50, 20, 60)
	est := NewEstimator(f.cat, sit.NewPool(f.cat), NInd{})
	r := est.NewRun(f.query)
	res := r.GetSelectivity(f.query.All())
	if math.IsInf(res.Err, 1) || math.IsNaN(res.Sel) {
		t.Fatalf("empty pool should fall back, got %+v", res)
	}
	want := FallbackJoinSelectivity * FallbackJoinSelectivity *
		FallbackFilterSelectivity * FallbackFilterSelectivity
	if !close(res.Sel, want, 1e-12) {
		t.Fatalf("fallback sel = %v, want %v", res.Sel, want)
	}
}

// TestMemoServesSubqueries: after estimating the full query, every
// sub-query request must be answered without any further view matching —
// the §4 integration property.
func TestMemoServesSubqueries(t *testing.T) {
	t.Parallel()
	f := newFixture(60, 40, 200)
	pool := f.pool(2)
	est := NewEstimator(f.cat, pool, NInd{})
	r := est.NewRun(f.query)
	r.GetSelectivity(f.query.All())
	calls := pool.MatchCalls()
	full := f.query.All()
	for set := engine.PredSet(1); set <= full; set++ {
		if set.SubsetOf(full) {
			r.GetSelectivity(set)
		}
	}
	if pool.MatchCalls() != calls {
		t.Fatalf("sub-query requests triggered %d extra view-matching calls",
			pool.MatchCalls()-calls)
	}
}

func histJoinSel(a, b *sit.SIT) float64 {
	if a == nil || b == nil {
		return FallbackJoinSelectivity
	}
	return histogram.Join(a.Hist, b.Hist).Selectivity
}

func close(a, b, tol float64) bool { return absDiff(a, b) <= tol }

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
