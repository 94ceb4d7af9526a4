package core

import (
	"fmt"
	"math/rand"
	"testing"

	"condsel/internal/engine"
	"condsel/internal/sit"
)

// dpBenchCase is a self-contained chain-schema database sized for DP
// micro-benchmarks: joins+1 tables of ~60 rows joined consecutively, with
// filters distributed over the tables to reach n predicates total, and the
// J2 pool for the query. Tables are small so the Opt model's oracle stays
// cheap — the benchmark targets the DP, not ground-truth evaluation.
type dpBenchCase struct {
	cat  *engine.Catalog
	q    *engine.Query
	pool *sit.Pool
	ev   *engine.Evaluator
}

var dpBenchCases = map[int]*dpBenchCase{}

func dpBenchCaseN(n int) *dpBenchCase {
	if c, ok := dpBenchCases[n]; ok {
		return c
	}
	rng := rand.New(rand.NewSource(int64(100 + n)))
	joins := n - 3
	if joins > 7 {
		joins = 7
	}
	filters := n - joins
	nTables := joins + 1
	cat := engine.NewCatalog()
	for ti := 0; ti < nTables; ti++ {
		rows := 50 + rng.Intn(30)
		cols := make([]*engine.Column, 3)
		for ci := range cols {
			vals := make([]int64, rows)
			for i := range vals {
				vals[i] = int64(rng.Intn(12))
			}
			cols[ci] = &engine.Column{Name: fmt.Sprintf("c%d", ci), Vals: vals}
		}
		cat.MustAddTable(&engine.Table{Name: fmt.Sprintf("T%d", ti), Cols: cols})
	}
	var preds []engine.Pred
	for ti := 1; ti <= joins; ti++ {
		preds = append(preds, engine.Join(
			cat.AttrsOfTable(engine.TableID(ti - 1))[0],
			cat.AttrsOfTable(engine.TableID(ti))[0]))
	}
	for fi := 0; fi < filters; fi++ {
		a := cat.AttrsOfTable(engine.TableID(fi % nTables))[1+(fi/nTables)%2]
		lo := int64(rng.Intn(10))
		preds = append(preds, engine.Filter(a, lo, lo+3))
	}
	q := engine.NewQuery(cat, preds)
	pool := sit.BuildWorkloadPool(sit.NewBuilder(cat), []*engine.Query{q}, 2)
	c := &dpBenchCase{cat: cat, q: q, pool: pool, ev: engine.NewEvaluator(cat)}
	dpBenchCases[n] = c
	return c
}

// BenchmarkGetSelectivity times one full-query getSelectivity run (NewRun +
// GetSelectivity of all predicates) across query sizes and error models,
// with the hot path on (default) vs off (NoFastPath baseline). Opt rows stop at n=8: beyond that the run time is dominated by
// oracle ground-truth evaluation rather than the DP being measured.
func BenchmarkGetSelectivity(b *testing.B) {
	for _, n := range []int{6, 8, 10, 12} {
		c := dpBenchCaseN(n)
		models := []ErrorModel{NInd{}, Diff{}}
		if n <= 8 {
			models = append(models, Opt{})
		}
		for _, model := range models {
			for _, fast := range []bool{true, false} {
				name := fmt.Sprintf("n=%d/model=%s/fast=%v", n, model.Name(), fast)
				b.Run(name, func(b *testing.B) {
					est := NewEstimator(c.cat, c.pool, model)
					est.NoFastPath = !fast
					if model.Name() == "Opt" {
						est.Oracle = c.ev
					}
					full := c.q.All()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						est.NewRun(c.q).GetSelectivity(full)
					}
				})
			}
		}
	}
}
