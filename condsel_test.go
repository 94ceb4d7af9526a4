package condsel_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	condsel "condsel"
)

func snowflake(t *testing.T) *condsel.DB {
	t.Helper()
	return condsel.GenerateSnowflake(condsel.SnowflakeConfig{Seed: 1, FactRows: 4000})
}

func TestAddTableAndQuery(t *testing.T) {
	t.Parallel()
	db := condsel.NewDB()
	err := db.AddTable("r",
		condsel.Column{Name: "a", Values: []int64{1, 2, 3, 4}},
		condsel.Column{Name: "b", Values: []int64{10, 20, 30, 40}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable("s", condsel.Column{Name: "a", Values: []int64{2, 3, 3}}); err != nil {
		t.Fatal(err)
	}
	q, err := db.Query().Join("r.a", "s.a").Filter("r.b", 15, 35).Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := db.ExactCardinality(q); got != 3 { // (2,2),(3,3),(3,3)
		t.Fatalf("exact cardinality = %v, want 3", got)
	}
	sel := db.ExactSelectivity(q)
	if want := 3.0 / 12.0; math.Abs(sel-want) > 1e-12 {
		t.Fatalf("exact selectivity = %v, want %v", sel, want)
	}
	if q.NumJoins() != 1 || q.NumFilters() != 1 || q.NumPredicates() != 2 {
		t.Fatalf("predicate counts wrong")
	}
	if preds := q.Predicates(); len(preds) != 2 || !strings.Contains(preds[0], "r.a = s.a") {
		t.Fatalf("Predicates = %v", preds)
	}
}

func TestQueryBuilderErrors(t *testing.T) {
	t.Parallel()
	db := condsel.NewDB()
	if err := db.AddTable("r", condsel.Column{Name: "a", Values: []int64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query().Filter("r.zzz", 0, 1).Build(); err == nil {
		t.Errorf("unknown attribute accepted")
	}
	if _, err := db.Query().Join("r.a", "r.zzz").Build(); err == nil {
		t.Errorf("unknown join attribute accepted")
	}
	if _, err := db.Query().Build(); err == nil {
		t.Errorf("empty query accepted")
	}
	// Errors stick through chained calls.
	if _, err := db.Query().Filter("r.zzz", 0, 1).FilterEq("r.a", 1).Build(); err == nil {
		t.Errorf("builder error lost")
	}
}

func TestDBIntrospection(t *testing.T) {
	t.Parallel()
	db := snowflake(t)
	if len(db.Tables()) != 8 {
		t.Fatalf("tables = %v", db.Tables())
	}
	if len(db.Attributes()) == 0 {
		t.Fatalf("no attributes")
	}
	n, err := db.NumRows("sales")
	if err != nil || n != 4000 {
		t.Fatalf("NumRows(sales) = %d, %v", n, err)
	}
	if _, err := db.NumRows("nope"); err == nil {
		t.Fatalf("unknown table accepted")
	}
	if !strings.Contains(db.Summary(), "sales") {
		t.Fatalf("summary missing sales")
	}
}

func TestEndToEndEstimation(t *testing.T) {
	t.Parallel()
	db := snowflake(t)
	q, err := db.Query().
		Join("sales.customer_fk", "customer.id").
		Filter("customer.hot", 9000, 10000).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	truth := db.ExactCardinality(q)
	if truth == 0 {
		t.Skip("degenerate data")
	}

	pool := db.BuildStatistics([]*condsel.Query{q}, 2, nil)
	if pool.Size() == 0 {
		t.Fatalf("empty pool")
	}
	noSit := db.BuildStatistics([]*condsel.Query{q}, 0, nil)

	errWith := math.Abs(db.NewEstimator(pool, condsel.Diff).Estimate(context.Background(), q).Cardinality - truth)
	errBase := math.Abs(db.NewEstimator(noSit, condsel.Diff).Estimate(context.Background(), q).Cardinality - truth)
	if errWith >= errBase {
		t.Fatalf("SITs should improve the §1 scenario: with %v vs base %v (truth %v)",
			errWith, errBase, truth)
	}

	explain := db.NewEstimator(pool, condsel.Diff).Explain(q)
	if !strings.Contains(explain, "Sel(") {
		t.Fatalf("Explain output: %s", explain)
	}
}

func TestManualPoolConstruction(t *testing.T) {
	t.Parallel()
	db := snowflake(t)
	pool := db.NewPool(nil)
	if err := pool.AddBaseHistogram("customer.hot"); err != nil {
		t.Fatal(err)
	}
	if err := pool.AddSIT("customer.hot", [2]string{"sales.customer_fk", "customer.id"}); err != nil {
		t.Fatal(err)
	}
	if pool.Size() != 2 {
		t.Fatalf("pool size = %d", pool.Size())
	}
	desc := pool.Describe()
	if len(desc) != 2 || !strings.Contains(strings.Join(desc, "\n"), "SIT(customer.hot") {
		t.Fatalf("Describe = %v", desc)
	}
	// Error cases.
	if err := pool.AddBaseHistogram("customer.zzz"); err == nil {
		t.Errorf("unknown attr accepted")
	}
	if err := pool.AddSIT("customer.hot", [2]string{"product.category_fk", "category.id"}); err == nil {
		t.Errorf("expression not covering attr's table accepted")
	}
	if err := pool.AddSIT("customer.hot",
		[2]string{"sales.customer_fk", "customer.id"},
		[2]string{"product.category_fk", "category.id"}); err == nil {
		t.Errorf("disconnected expression accepted")
	}
	// AddSIT with no joins degrades to a base histogram (idempotent).
	if err := pool.AddSIT("customer.u1"); err != nil {
		t.Fatal(err)
	}
	if pool.Size() != 3 {
		t.Fatalf("pool size after base-degenerate AddSIT = %d", pool.Size())
	}
}

func TestRunSubqueries(t *testing.T) {
	t.Parallel()
	db := snowflake(t)
	q := db.Query().
		Join("sales.customer_fk", "customer.id").
		Filter("customer.hot", 8000, 10000).
		Filter("sales.u1", 0, 500).
		MustBuild()
	pool := db.BuildStatistics([]*condsel.Query{q}, 1, nil)
	run := db.NewEstimator(pool, condsel.NInd).Run(q)

	full, err := run.Cardinality()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := run.Cardinality(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if full < 0 || sub < full {
		t.Fatalf("sub-query cardinality %v should be ≥ full %v", sub, full)
	}
	if _, err := run.Cardinality(99); err == nil {
		t.Fatalf("out-of-range predicate index accepted")
	}
	if _, err := run.Selectivity(0); err != nil {
		t.Fatal(err)
	}
	if s, err := run.Explain(0); err != nil || !strings.Contains(s, "Sel(") {
		t.Fatalf("Explain(0) = %q, %v", s, err)
	}
}

func TestModelsAndGVM(t *testing.T) {
	t.Parallel()
	db := snowflake(t)
	q := db.Query().
		Join("sales.customer_fk", "customer.id").
		Join("customer.region_fk", "region.id").
		Filter("customer.hot", 9000, 10000).
		Filter("region.u1", 0, 4000).
		MustBuild()
	pool := db.BuildStatistics([]*condsel.Query{q}, 2, nil)
	truth := db.ExactCardinality(q)

	if got := condsel.NInd.String(); got != "nInd" {
		t.Fatalf("NInd name %q", got)
	}
	if got := condsel.Diff.String(); got != "Diff" {
		t.Fatalf("Diff name %q", got)
	}
	if got := condsel.Opt.String(); got != "Opt" {
		t.Fatalf("Opt name %q", got)
	}

	for _, m := range []condsel.Model{condsel.NInd, condsel.Diff, condsel.Opt} {
		ans := db.NewEstimator(pool, m).Estimate(context.Background(), q)
		if card := ans.Cardinality; card < 0 || math.IsNaN(card) {
			t.Fatalf("model %v: bad cardinality %v", m, card)
		}
		if sel := ans.Selectivity; sel < 0 || sel > 1 {
			t.Fatalf("model %v: bad selectivity %v", m, sel)
		}
	}

	g := db.NewGVMEstimator(pool)
	if card := g.Cardinality(q); card < 0 {
		t.Fatalf("GVM cardinality %v", card)
	}
	if sel := g.Selectivity(q); sel < 0 || sel > 1 {
		t.Fatalf("GVM selectivity %v", sel)
	}
	_ = truth
}

func TestCoupledCardinality(t *testing.T) {
	t.Parallel()
	db := snowflake(t)
	q := db.Query().
		Join("sales.customer_fk", "customer.id").
		Join("sales.store_fk", "store.id").
		Filter("customer.hot", 9000, 10000).
		MustBuild()
	pool := db.BuildStatistics([]*condsel.Query{q}, 2, nil)
	est := db.NewEstimator(pool, condsel.Diff)
	card, err := est.CoupledCardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	if card < 0 || math.IsNaN(card) {
		t.Fatalf("coupled cardinality %v", card)
	}
}

func TestGenerateWorkload(t *testing.T) {
	t.Parallel()
	db := snowflake(t)
	queries, err := db.GenerateWorkload(condsel.WorkloadOptions{Seed: 2, NumQueries: 5, Joins: 3, Filters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 5 {
		t.Fatalf("workload size %d", len(queries))
	}
	for _, q := range queries {
		if q.NumJoins() != 3 || q.NumFilters() != 2 {
			t.Fatalf("query shape wrong: %s", q)
		}
		if db.ExactCardinality(q) == 0 {
			t.Fatalf("empty workload query: %s", q)
		}
	}
	// Not available on hand-built databases.
	plain := condsel.NewDB()
	if _, err := plain.GenerateWorkload(condsel.WorkloadOptions{}); err == nil {
		t.Fatalf("workload on plain DB accepted")
	}
	if _, err := plain.SnowflakeJoins(); err == nil {
		t.Fatalf("SnowflakeJoins on plain DB accepted")
	}
	joins, err := db.SnowflakeJoins()
	if err != nil || len(joins) != 7 {
		t.Fatalf("SnowflakeJoins = %v, %v", joins, err)
	}
}

func TestViewMatchCounter(t *testing.T) {
	t.Parallel()
	db := snowflake(t)
	q := db.Query().
		Join("sales.customer_fk", "customer.id").
		Filter("customer.hot", 9000, 10000).
		MustBuild()
	pool := db.BuildStatistics([]*condsel.Query{q}, 1, nil)
	pool.ResetViewMatchCalls()
	db.NewEstimator(pool, condsel.NInd).Estimate(context.Background(), q)
	if pool.ViewMatchCalls() == 0 {
		t.Fatalf("view-matching calls not counted")
	}
	sub := pool.MaxJoins(0)
	if sub.Size() >= pool.Size() {
		t.Fatalf("MaxJoins(0) did not shrink pool: %d vs %d", sub.Size(), pool.Size())
	}
}

func TestStatsOptions(t *testing.T) {
	t.Parallel()
	db := snowflake(t)
	q := db.Query().
		Join("sales.customer_fk", "customer.id").
		Filter("customer.hot", 9000, 10000).
		MustBuild()
	for _, kind := range []condsel.HistogramKind{condsel.MaxDiff, condsel.EquiDepth, condsel.EquiWidth} {
		pool := db.BuildStatistics([]*condsel.Query{q}, 1,
			&condsel.StatsOptions{Buckets: 50, Kind: kind, ExactDiff: kind == condsel.MaxDiff})
		est := db.NewEstimator(pool, condsel.Diff)
		if card := est.Estimate(context.Background(), q).Cardinality; card < 0 || math.IsNaN(card) {
			t.Fatalf("kind %v: bad cardinality %v", kind, card)
		}
	}
}

func TestGroupCount(t *testing.T) {
	t.Parallel()
	db := snowflake(t)
	q := db.Query().
		Join("sales.customer_fk", "customer.id").
		Filter("customer.hot", 8000, 10000).
		MustBuild()
	pool := db.BuildStatistics([]*condsel.Query{q}, 1, nil)
	est := db.NewEstimator(pool, condsel.Diff)

	got, err := est.GroupCount(q, "customer.hot")
	if err != nil {
		t.Fatal(err)
	}
	truth, err := db.ExactGroupCount(q, "customer.hot")
	if err != nil {
		t.Fatal(err)
	}
	if truth > 0 {
		if rel := math.Abs(got-truth) / truth; rel > 0.5 {
			t.Fatalf("group count %v vs truth %v (rel err %.2f)", got, truth, rel)
		}
	}
	if _, err := est.GroupCount(q, "customer.zzz"); err == nil {
		t.Fatalf("unknown attribute accepted")
	}
	if _, err := db.ExactGroupCount(q, "nope.nope"); err == nil {
		t.Fatalf("unknown attribute accepted by exact")
	}
}

func TestParseQueryPublic(t *testing.T) {
	t.Parallel()
	db := snowflake(t)
	q, err := db.ParseQuery("sales.customer_fk = customer.id AND customer.hot BETWEEN 9000 AND 10000")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumJoins() != 1 || q.NumFilters() != 1 {
		t.Fatalf("parsed shape wrong: %s", q)
	}
	// Round-trip through the String rendering.
	q2, err := db.ParseQuery(q.String())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if db.ExactCardinality(q) != db.ExactCardinality(q2) {
		t.Fatalf("round trip changed semantics")
	}
	if _, err := db.ParseQuery("argle bargle"); err == nil {
		t.Fatalf("nonsense accepted")
	}
}

func TestPoolSaveLoad(t *testing.T) {
	t.Parallel()
	db := snowflake(t)
	q := db.Query().
		Join("sales.customer_fk", "customer.id").
		Filter("customer.hot", 9000, 10000).
		MustBuild()
	pool := db.BuildStatistics([]*condsel.Query{q}, 1, nil)

	var buf bytes.Buffer
	if err := pool.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := db.LoadPool(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != pool.Size() {
		t.Fatalf("size %d after reload, want %d", loaded.Size(), pool.Size())
	}
	a := db.NewEstimator(pool, condsel.Diff).Estimate(context.Background(), q).Cardinality
	b := db.NewEstimator(loaded, condsel.Diff).Estimate(context.Background(), q).Cardinality
	if a != b {
		t.Fatalf("estimates differ after reload: %v vs %v", a, b)
	}
	if _, err := db.LoadPool(strings.NewReader("not json")); err == nil {
		t.Fatalf("garbage pool accepted")
	}
}

func TestTwoDimStatistics(t *testing.T) {
	t.Parallel()
	db := snowflake(t)
	q := db.Query().
		Join("sales.customer_fk", "customer.id").
		Filter("customer.hot", 9000, 10000).
		MustBuild()
	truth := db.ExactCardinality(q)
	if truth == 0 {
		t.Skip("degenerate data")
	}

	// Pool with ONLY base 1-D histograms plus 2-D base histograms: the
	// estimator must derive the conditional statistic on the fly.
	pool := db.BuildStatistics([]*condsel.Query{q}, 0, &condsel.StatsOptions{TwoDim: true})
	if pool.Size2D() == 0 {
		t.Fatalf("no 2-D histograms built")
	}
	plain := db.BuildStatistics([]*condsel.Query{q}, 0, nil)

	errDerived := math.Abs(db.NewEstimator(pool, condsel.Diff).Estimate(context.Background(), q).Cardinality - truth)
	errPlain := math.Abs(db.NewEstimator(plain, condsel.Diff).Estimate(context.Background(), q).Cardinality - truth)
	if errDerived >= errPlain {
		t.Fatalf("2-D derivation (%v) should beat independence (%v), truth %v",
			errDerived, errPlain, truth)
	}

	// Manual construction.
	manual := db.NewPool(nil)
	if err := manual.AddBaseHistogram("customer.hot"); err != nil {
		t.Fatal(err)
	}
	if err := manual.Add2DHistogram("customer.id", "customer.hot"); err != nil {
		t.Fatal(err)
	}
	if manual.Size2D() != 1 {
		t.Fatalf("manual Size2D = %d", manual.Size2D())
	}
	if err := manual.Add2DHistogram("customer.id", "sales.u1"); err == nil {
		t.Fatalf("cross-table 2-D histogram accepted")
	}
	if err := manual.Add2DHistogram("zzz.z", "customer.hot"); err == nil {
		t.Fatalf("unknown attribute accepted")
	}
}

// TestLoadPoolRejectsMalformed2D: a saved pool whose 2-D histogram was
// corrupted reloads without that histogram, with the reason in Health, and
// the full DP then answers exactly as it does over the same pool without 2-D
// statistics. Before the load-time check, the first two corruptions made
// both DP tiers panic (Estimate fell back to GVM, Run panicked) and the
// third silently changed the estimate.
func TestLoadPoolRejectsMalformed2D(t *testing.T) {
	t.Parallel()
	db := snowflake(t)
	q := db.Query().
		Join("sales.customer_fk", "customer.id").
		Filter("customer.hot", 9000, 10000).
		MustBuild()
	pool := db.BuildStatistics([]*condsel.Query{q}, 0, &condsel.StatsOptions{TwoDim: true})
	if pool.Size2D() != 1 {
		t.Fatalf("want one 2-D histogram, got %d", pool.Size2D())
	}
	var saved bytes.Buffer
	if err := pool.Save(&saved); err != nil {
		t.Fatal(err)
	}
	plain := db.BuildStatistics([]*condsel.Query{q}, 0, nil)
	want := db.NewEstimator(plain, condsel.Diff).Estimate(context.Background(), q)

	cut := func(key string, n int) func(h map[string]any) {
		return func(h map[string]any) { h[key] = h[key].([]any)[:n] }
	}
	cases := []struct {
		name    string
		corrupt func(h map[string]any)
	}{
		{"ragged cells row", func(h map[string]any) {
			cells := h["cells"].([]any)
			row := cells[1].([]any)
			cells[1] = row[:len(row)-1]
		}},
		{"x distinct cut to one entry", cut("xDistinct", 1)},
		{"x bounds cut to two entries", cut("xBounds", 2)},
	}
	for _, c := range cases {
		var snap map[string]any
		if err := json.Unmarshal(saved.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		hist := snap["sits2d"].([]any)[0].(map[string]any)["hist"].(map[string]any)
		if len(hist["cells"].([]any)) < 2 {
			t.Fatal("want a 2-D histogram with at least 2 x stripes")
		}
		c.corrupt(hist)
		raw, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := db.LoadPool(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if loaded.Size2D() != 0 {
			t.Errorf("%s: Size2D = %d, want 0", c.name, loaded.Size2D())
		}
		if h := loaded.Health(); h.Quarantined != 1 || len(h.Reasons) != 1 {
			t.Errorf("%s: health %+v, want one quarantined statistic with its reason", c.name, h)
		}
		est := db.NewEstimator(loaded, condsel.Diff)
		ans := est.Estimate(context.Background(), q)
		if ans.Err != nil || ans.Provenance.Tier != condsel.TierFullDP || ans.Provenance.FallbackReason != "" {
			t.Fatalf("%s: answer %+v, want a clean full-DP estimate", c.name, ans)
		}
		if ans.Cardinality != want.Cardinality {
			t.Errorf("%s: cardinality %v, want %v as without 2-D statistics", c.name, ans.Cardinality, want.Cardinality)
		}
		if card, err := est.Run(q).Cardinality(); err != nil || card != want.Cardinality {
			t.Errorf("%s: Run cardinality %v (%v), want %v", c.name, card, err, want.Cardinality)
		}
	}
}

func TestBestPlan(t *testing.T) {
	t.Parallel()
	db := snowflake(t)
	q := db.Query().
		Join("sales.customer_fk", "customer.id").
		Join("customer.region_fk", "region.id").
		Filter("customer.hot", 9000, 10000).
		MustBuild()
	pool := db.BuildStatistics([]*condsel.Query{q}, 2, nil)
	plan, cost, err := db.NewEstimator(pool, condsel.Diff).BestPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "⋈") || cost < 0 {
		t.Fatalf("plan %q cost %v", plan, cost)
	}
	// Disconnected queries cannot be planned.
	bad := db.Query().
		Filter("customer.hot", 0, 100).
		Filter("store.u1", 0, 100).
		MustBuild()
	if _, _, err := db.NewEstimator(pool, condsel.Diff).BestPlan(bad); err == nil {
		t.Fatalf("disconnected query planned")
	}
}

func TestParallelStatisticsBuild(t *testing.T) {
	t.Parallel()
	db := snowflake(t)
	q := db.Query().
		Join("sales.customer_fk", "customer.id").
		Filter("customer.hot", 9000, 10000).
		MustBuild()
	seq := db.BuildStatistics([]*condsel.Query{q}, 2, nil)
	par := db.BuildStatistics([]*condsel.Query{q}, 2, &condsel.StatsOptions{Workers: 4})
	if seq.Size() != par.Size() {
		t.Fatalf("parallel pool size %d, sequential %d", par.Size(), seq.Size())
	}
	a := db.NewEstimator(seq, condsel.Diff).Estimate(context.Background(), q).Cardinality
	b := db.NewEstimator(par, condsel.Diff).Estimate(context.Background(), q).Cardinality
	if a != b {
		t.Fatalf("estimates differ: %v vs %v", a, b)
	}
}

func TestExecute(t *testing.T) {
	t.Parallel()
	db := condsel.NewDB()
	if err := db.AddTable("r",
		condsel.Column{Name: "a", Values: []int64{1, 2, 3}},
		condsel.Column{Name: "b", Values: []int64{10, 20, 30}, Nulls: []bool{false, true, false}},
	); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable("s", condsel.Column{Name: "a", Values: []int64{2, 3, 3}}); err != nil {
		t.Fatal(err)
	}
	q := db.Query().Join("r.a", "s.a").MustBuild()

	rows, names, err := db.Execute(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // (2,2),(3,3),(3,3)
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if len(names) != 3 { // r.a, r.b, s.a
		t.Fatalf("names = %v", names)
	}
	// NULLs surface in the mask.
	sawNull := false
	for _, r := range rows {
		for i := range r.Values {
			if r.Nulls[i] {
				sawNull = true
			}
		}
	}
	if !sawNull {
		t.Fatalf("expected a NULL r.b in the result")
	}

	// Projection + limit.
	rows, names, err = db.Execute(q, 1, "s.a")
	if err != nil || len(rows) != 1 || len(names) != 1 || names[0] != "s.a" {
		t.Fatalf("projected execute: rows=%d names=%v err=%v", len(rows), names, err)
	}

	// Error cases.
	if _, _, err := db.Execute(q, 0, "r.zzz"); err == nil {
		t.Fatalf("unknown attribute accepted")
	}
	disc := db.Query().Filter("r.a", 0, 5).FilterEq("s.a", 2).MustBuild()
	if _, _, err := db.Execute(disc, 0); err == nil {
		t.Fatalf("disconnected query executed")
	}
	other := db.Query().Filter("r.a", 0, 5).MustBuild()
	if _, _, err := db.Execute(other, 0, "s.a"); err == nil {
		t.Fatalf("attribute outside query accepted")
	}
}
