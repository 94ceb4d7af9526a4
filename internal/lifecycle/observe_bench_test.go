package lifecycle

import (
	"fmt"
	"testing"

	"condsel/internal/core"
	"condsel/internal/datagen"
	"condsel/internal/sit"
	"condsel/internal/workload"
)

// BenchmarkObserve times one feedback observation over queries of 2 and 5
// joins. "warm-cache": the epoch's cross-query cache holds every query's
// decomposition, as when feedback follows a full-DP answer through a
// cache-fronted manager. "no-cache": the manager has no cross-query cache,
// as the root Manager, so every observation recomputes the query's full DP;
// feedback on an answer a lower ladder tier produced pays the same once per
// query even with a cache attached.
//
//	go test ./internal/lifecycle/ -run '^$' -bench Observe -benchtime 2s
func BenchmarkObserve(b *testing.B) {
	db := datagen.Generate(datagen.Config{Seed: 41, FactRows: 2000})
	for _, joins := range []int{2, 5} {
		g := workload.NewGenerator(db, workload.Config{Seed: 41, NumQueries: 8, Joins: joins, Filters: 3})
		queries, err := g.Generate()
		if err != nil {
			b.Fatal(err)
		}
		pool := sit.BuildWorkloadPool(sit.NewBuilder(db.Cat), queries, 2)
		for _, warm := range []bool{true, false} {
			name := fmt.Sprintf("J=%d/no-cache", joins)
			cfg := Config{DriftThreshold: 1e12}
			if warm {
				name = fmt.Sprintf("J=%d/warm-cache", joins)
				cfg.Cache = core.NewSelCache(1 << 14)
			}
			b.Run(name, func(b *testing.B) {
				m := New(db.Cat, pool, cfg)
				_ = estimateAll(m.Estimator(), queries)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q := queries[i%len(queries)]
					m.Observe(q, q.All(), 10, 1000)
				}
			})
		}
	}
}
