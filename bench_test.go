package condsel_test

// Benchmarks regenerating every figure of the paper plus micro-benchmarks
// of the load-bearing operations. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks (BenchmarkFig5 … BenchmarkFig8, BenchmarkLemma1)
// exercise the same harness as cmd/sitbench at a reduced scale so a full
// -bench=. pass stays in the minutes; the paper-scale series are produced
// by cmd/sitbench and recorded in EXPERIMENTS.md.

import (
	"context"
	"strconv"
	"sync"
	"testing"

	condsel "condsel"
	"condsel/internal/bench"
	"condsel/internal/core"
	"condsel/internal/engine"
	"condsel/internal/gvm"
	"condsel/internal/histogram"
	"condsel/internal/sit"
)

// benchEnv is shared by the figure benchmarks; building it (database,
// workloads, pools, ground truth) happens once, outside the timers.
var (
	benchEnvOnce sync.Once
	benchEnvVal  *bench.Env
)

func benchEnv() *bench.Env {
	benchEnvOnce.Do(func() {
		benchEnvVal = bench.NewEnv(bench.Options{
			Seed:               42,
			FactRows:           8000,
			QueriesPerWorkload: 6,
			Joins:              []int{3, 5},
			Fig5Joins:          []int{3, 5},
			MaxPoolJoins:       4,
			SubsetCap:          64,
		})
		// Force workloads, pools and ground truth so the timed sections
		// measure estimation work only.
		for _, j := range []int{3, 5} {
			for _, q := range benchEnvVal.Workload(j) {
				for _, set := range benchEnvVal.SubQueries(q) {
					benchEnvVal.TrueCard(q, set)
				}
			}
			benchEnvVal.Pool(j, 4)
		}
	})
	return benchEnvVal
}

// BenchmarkFig5 regenerates the Figure 5 scatter (GVM vs GS-nInd error).
func BenchmarkFig5(b *testing.B) {
	e := benchEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := e.Fig5()
		if len(points) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFig6 regenerates the Figure 6 view-matching call counts.
func BenchmarkFig6(b *testing.B) {
	e := benchEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := e.Fig6()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig7 regenerates the Figure 7 error matrix (all techniques,
// all pools).
func BenchmarkFig7(b *testing.B) {
	e := benchEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := e.Fig7()
		if len(cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

// BenchmarkFig8 regenerates the Figure 8 timing breakdown.
func BenchmarkFig8(b *testing.B) {
	e := benchEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := e.Fig8()
		if len(cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

// BenchmarkLemma1 regenerates the Lemma 1 decomposition-count table.
func BenchmarkLemma1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Lemma1(12)
		if len(rows) != 12 {
			b.Fatal("bad table")
		}
	}
}

// benchQueryEnv provides one query + pools for the per-operation
// benchmarks below.
type queryEnv struct {
	env   *bench.Env
	query *engine.Query
	pool  *sit.Pool
}

var (
	queryEnvOnce sync.Once
	queryEnvs    map[int]*queryEnv
)

func getQueryEnv(j int) *queryEnv {
	queryEnvOnce.Do(func() {
		queryEnvs = make(map[int]*queryEnv)
		e := benchEnv()
		for _, jj := range []int{3, 5} {
			queryEnvs[jj] = &queryEnv{env: e, query: e.Workload(jj)[0], pool: e.Pool(jj, 2)}
		}
	})
	return queryEnvs[j]
}

// BenchmarkGetSelectivity measures one full getSelectivity run (full query
// plus memoized sub-queries) per error model and join count.
func BenchmarkGetSelectivity(b *testing.B) {
	for _, j := range []int{3, 5} {
		qe := getQueryEnv(j)
		for _, model := range []core.ErrorModel{core.NInd{}, core.Diff{}} {
			b.Run(model.Name()+"/J"+string(rune('0'+j)), func(b *testing.B) {
				est := core.NewEstimator(qe.env.DB.Cat, qe.pool, model)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					run := est.NewRun(qe.query)
					run.GetSelectivity(qe.query.All())
				}
			})
		}
	}
}

// BenchmarkGVM measures one greedy view-matching estimation.
func BenchmarkGVM(b *testing.B) {
	for _, j := range []int{3, 5} {
		qe := getQueryEnv(j)
		b.Run("J"+string(rune('0'+j)), func(b *testing.B) {
			est := gvm.NewEstimator(qe.env.DB.Cat, qe.pool)
			for i := 0; i < b.N; i++ {
				est.EstimateSelectivity(qe.query, qe.query.All())
			}
		})
	}
}

// BenchmarkHistogramBuild measures maxDiff construction at the paper's
// 200-bucket budget.
func BenchmarkHistogramBuild(b *testing.B) {
	e := benchEnv()
	col := e.DB.Cat.TableByName("sales").Column("z1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		histogram.BuildMaxDiff(col.Vals, 200)
	}
}

// BenchmarkHistogramJoin measures one histogram equi-join.
func BenchmarkHistogramJoin(b *testing.B) {
	e := benchEnv()
	fk := histogram.BuildMaxDiff(e.DB.Cat.TableByName("sales").Column("customer_fk").Vals, 200)
	pk := histogram.BuildMaxDiff(e.DB.Cat.TableByName("customer").Column("id").Vals, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		histogram.Join(fk, pk)
	}
}

// BenchmarkExactCount measures the ground-truth evaluator on the full
// 3-join query (cache cleared every iteration).
func BenchmarkExactCount(b *testing.B) {
	qe := getQueryEnv(3)
	ev := engine.NewEvaluator(qe.env.DB.Cat)
	q := qe.query
	for i := 0; i < b.N; i++ {
		ev.ResetCache()
		ev.Count(q.Tables, q.Preds, q.All())
	}
}

// BenchmarkPoolBuild measures building the J1 pool for one query's
// workload from scratch.
func BenchmarkPoolBuild(b *testing.B) {
	qe := getQueryEnv(3)
	queries := []*engine.Query{qe.query}
	for i := 0; i < b.N; i++ {
		builder := sit.NewBuilder(qe.env.DB.Cat)
		sit.BuildWorkloadPool(builder, queries, 1)
	}
}

// BenchmarkPublicAPI measures an end-to-end estimate through the public
// facade (query build + estimator run).
func BenchmarkPublicAPI(b *testing.B) {
	db := condsel.GenerateSnowflake(condsel.SnowflakeConfig{Seed: 5, FactRows: 5000})
	q := db.Query().
		Join("sales.customer_fk", "customer.id").
		Filter("customer.hot", 9000, 10000).
		MustBuild()
	pool := db.BuildStatistics([]*condsel.Query{q}, 2, nil)
	est := db.NewEstimator(pool, condsel.Diff)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Estimate(ctx, q)
	}
}

// BenchmarkAblationHistogramKind compares estimation accuracy work across
// histogram classes (the design-choice ablation of DESIGN.md).
func BenchmarkAblationHistogramKind(b *testing.B) {
	e := benchEnv()
	q := e.Workload(3)[0]
	for _, kind := range []histogram.Kind{histogram.MaxDiff, histogram.EquiDepth, histogram.EquiWidth} {
		b.Run(kind.String(), func(b *testing.B) {
			builder := sit.NewBuilder(e.DB.Cat)
			builder.Kind = kind
			pool := sit.BuildWorkloadPool(builder, []*engine.Query{q}, 2)
			est := core.NewEstimator(e.DB.Cat, pool, core.Diff{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run := est.NewRun(q)
				run.GetSelectivity(q.All())
			}
		})
	}
}

// BenchmarkAblationBuckets sweeps the histogram bucket budget.
func BenchmarkAblationBuckets(b *testing.B) {
	e := benchEnv()
	q := e.Workload(3)[0]
	for _, buckets := range []int{50, 100, 200, 400} {
		b.Run(strconv.Itoa(buckets), func(b *testing.B) {
			builder := sit.NewBuilder(e.DB.Cat)
			builder.Buckets = buckets
			pool := sit.BuildWorkloadPool(builder, []*engine.Query{q}, 2)
			est := core.NewEstimator(e.DB.Cat, pool, core.Diff{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run := est.NewRun(q)
				run.GetSelectivity(q.All())
			}
		})
	}
}
