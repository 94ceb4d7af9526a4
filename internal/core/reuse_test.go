package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"condsel/internal/engine"
	"condsel/internal/sit"
)

// reuseCase is a chain of eight tables queried at n=10, then n=6, then
// n=10 again. The queries carry a duplicated filter, a self-join and a
// filter on an attribute the pool holds no statistic for, so a run reused
// across them meets every shape its per-query state must forget: repeated
// canonical predicates, a join confined to one table, a fallback factor,
// and a change of predicate count in both directions.
type reuseCase struct {
	cat     *engine.Catalog
	pool    *sit.Pool
	queries []*engine.Query
}

func newReuseCase() *reuseCase {
	rng := rand.New(rand.NewSource(1610))
	cat := engine.NewCatalog()
	for ti := 0; ti < 8; ti++ {
		rows := 40 + rng.Intn(30)
		cols := make([]*engine.Column, 3)
		for ci := range cols {
			vals := make([]int64, rows)
			for i := range vals {
				vals[i] = int64(rng.Intn(10))
			}
			cols[ci] = &engine.Column{Name: fmt.Sprintf("c%d", ci), Vals: vals}
		}
		cat.MustAddTable(&engine.Table{Name: fmt.Sprintf("T%d", ti), Cols: cols})
	}
	attr := func(t, c int) engine.AttrID { return cat.AttrsOfTable(engine.TableID(t))[c] }
	join := func(t int) engine.Pred { return engine.Join(attr(t-1, 0), attr(t, 0)) }
	selfJoin := engine.Join(attr(2, 1), attr(2, 2))
	dup := engine.Filter(attr(1, 1), 2, 5)
	noSIT := engine.Filter(attr(4, 2), 0, 6)

	q10a := engine.NewQuery(cat, []engine.Pred{
		join(1), join(2), join(3), join(4), join(5),
		selfJoin, dup, dup, noSIT, engine.Filter(attr(0, 2), 1, 4),
	})
	q6 := engine.NewQuery(cat, []engine.Pred{
		join(2), join(1), dup, engine.Filter(attr(2, 1), 3, 8), dup, selfJoin,
	})
	q10b := engine.NewQuery(cat, []engine.Pred{
		engine.Filter(attr(5, 1), 0, 4), join(3), join(4), join(5), join(6), join(7),
		noSIT, engine.Filter(attr(7, 2), 2, 9), selfJoin, join(2),
	})
	queries := []*engine.Query{q10a, q6, q10b}
	pool := sit.BuildWorkloadPool(sit.NewBuilder(cat), queries, 2).
		Filter(func(s *sit.SIT) bool { return s.Attr != noSIT.Attr })
	return &reuseCase{cat: cat, pool: pool, queries: queries}
}

// reuseAnswer is everything a run reports for one predicate set.
type reuseAnswer struct {
	sel, err float64
	key      string
	explain  string
}

func answerOf(r *Run, set engine.PredSet) reuseAnswer {
	res := r.decompose(set)
	return reuseAnswer{res.Sel, res.Err, res.key, r.Explain(set)}
}

// TestPooledRunReuseChangesNoAnswer: a pooled run, reset from one query to
// the next, answers every predicate subset exactly as a run of a fresh
// estimator does — selectivity, error, chain key and Explain text — and
// issues the same number of view-matching calls. Stale state a reset
// forgot (a memo entry, a component span, a cached candidate list, a
// projection of the previous query) would show up as a different answer
// or a different call count.
func TestPooledRunReuseChangesNoAnswer(t *testing.T) {
	c := newReuseCase()
	for _, model := range []ErrorModel{NInd{}, Diff{}} {
		pooled := NewEstimator(c.cat, c.pool, model)
		var last *Run
		reused := 0
		for pass := 0; pass < 2; pass++ {
			for qi, q := range c.queries {
				label := fmt.Sprintf("%s pass %d query %d (n=%d)", model.Name(), pass, qi, len(q.Preds))
				fresh := NewEstimator(c.cat, c.pool, model)

				before := c.pool.MatchCalls()
				r := pooled.NewRun(q)
				if r == last {
					reused++
				}
				got := make(map[engine.PredSet]reuseAnswer)
				full := q.All()
				for set := engine.PredSet(1); set <= full; set++ {
					got[set] = answerOf(r, set)
				}
				r.Release()
				last = r
				mid := c.pool.MatchCalls()

				rf := fresh.NewRun(q)
				for set := engine.PredSet(1); set <= full; set++ {
					if want := answerOf(rf, set); got[set] != want {
						t.Fatalf("%s: set %v: pooled run %+v, fresh %+v", label, set, got[set], want)
					}
				}
				rf.Release()
				if pooledCalls, freshCalls := mid-before, c.pool.MatchCalls()-mid; pooledCalls != freshCalls {
					t.Fatalf("%s: pooled run made %d match calls, fresh %d", label, pooledCalls, freshCalls)
				}
			}
		}
		if !raceEnabled && reused == 0 {
			t.Fatalf("%s: the estimator never handed back a released run", model.Name())
		}
	}
}

// TestPooledRunReuseConcurrent runs the reuse case from 8 goroutines that
// share one estimator and one selectivity cache, each walking the queries
// in its own shuffled order, and checks every answer against a sequential
// baseline from a cache-less estimator. Under -race it is the proof that
// pooled runs share no lookup state across goroutines.
func TestPooledRunReuseConcurrent(t *testing.T) {
	t.Parallel()
	const seed = 20261017
	c := newReuseCase()
	baseline := make([]reuseAnswer, len(c.queries))
	for qi, q := range c.queries {
		r := NewEstimator(c.cat, c.pool, Diff{}).NewRun(q)
		baseline[qi] = answerOf(r, q.All())
		r.Release()
	}

	est := NewEstimator(c.cat, c.pool, Diff{})
	est.Cache = NewSelCache(256) // small: eviction under contention
	const goroutines, rounds = 8, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)))
			for round := 0; round < rounds; round++ {
				for _, qi := range rng.Perm(len(c.queries)) {
					r := est.NewRun(c.queries[qi])
					got := answerOf(r, c.queries[qi].All())
					r.Release()
					if got != baseline[qi] {
						t.Errorf("seed %d goroutine %d query %d: %+v, want %+v", seed, g, qi, got, baseline[qi])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReleasedRunContract pins what a *Run does once released, which no
// type can express: a pooled run is reused by the next NewRun, so a stale
// handle must fail loudly rather than answer. Release nils the run's
// estimator and query, so every unguarded exported method panics, each
// guarded one reports a fallback reason instead, and a second Release is a
// no-op that does not hand the run out twice. The table must name every
// exported method of *Run but Release.
func TestReleasedRunContract(t *testing.T) {
	t.Parallel()
	f := newFixture(1, 60, 300)
	est := NewEstimator(f.cat, f.pool(2), NInd{})
	all := f.query.All()
	attr := f.query.Preds[f.fPrice].Attr
	released := func() *Run {
		r := est.NewRun(f.query)
		r.GetSelectivity(all)
		r.Release()
		return r
	}
	cases := []struct {
		method  string
		guarded bool
		call    func(r *Run) (fallbackReason string)
	}{
		{"GetSelectivity", false, func(r *Run) string { r.GetSelectivity(all); return "" }},
		{"EstimateCardinality", false, func(r *Run) string { r.EstimateCardinality(all); return "" }},
		{"EstimateGroups", false, func(r *Run) string { r.EstimateGroups(attr, all); return "" }},
		{"Explain", false, func(r *Run) string { r.Explain(all); return "" }},
		{"SITsRead", false, func(r *Run) string { r.SITsRead(all); return "" }},
		{"ApproxFactor", false, func(r *Run) string { r.ApproxFactor(0, 0); return "" }},
		{"SelectivityGuarded", true, func(r *Run) string { _, reason := r.SelectivityGuarded(all); return reason }},
		{"GreedyChainGuarded", true, func(r *Run) string { _, _, reason := r.GreedyChainGuarded(all); return reason }},
		{"IndependenceGuarded", true, func(r *Run) string { _, reason := r.IndependenceGuarded(all); return reason }},
	}

	for _, c := range cases {
		var reason string
		panicked := func() (p any) {
			defer func() { p = recover() }()
			reason = c.call(released())
			return nil
		}()
		switch {
		case c.guarded && panicked != nil:
			t.Errorf("%s on a released run panicked (%v), want a fallback reason", c.method, panicked)
		case c.guarded && reason == "":
			t.Errorf("%s on a released run reported no fallback reason", c.method)
		case !c.guarded && panicked == nil:
			t.Errorf("%s on a released run returned, want a panic", c.method)
		}
	}
	if n := reflect.TypeOf(&Run{}).NumMethod(); n != len(cases)+1 {
		t.Errorf("*Run has %d exported methods; the released-run table names %d plus Release", n, len(cases))
	}

	r := released()
	r.Release()
	if a, b := est.NewRun(f.query), est.NewRun(f.query); a == b {
		t.Fatal("a second Release parked the run twice: two live NewRun calls returned the same run")
	}
}
