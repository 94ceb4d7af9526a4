package condsel_test

// Native fuzz targets for the public query-construction surface: whatever
// byte stream the fuzzer invents, QueryBuilder must either return a clean
// error from Build or produce a query that renders, re-parses to itself and
// estimates to a sane selectivity — never panic.

import (
	"context"
	"math"
	"sync"
	"testing"

	condsel "condsel"
)

var (
	fuzzOnce sync.Once
	fuzzDB   *condsel.DB
	fuzzEst  *condsel.Estimator
)

// fuzzWorld lazily builds one tiny snowflake database, a J1 statistics pool
// over a fixed workload and a shared estimator. Fuzz iterations only read
// them (the estimator is concurrency-safe), so a single instance serves the
// fuzzing engine's parallel workers.
func fuzzWorld() (*condsel.DB, *condsel.Estimator) {
	fuzzOnce.Do(func() {
		db := condsel.GenerateSnowflake(condsel.SnowflakeConfig{Seed: 11, FactRows: 300})
		queries, err := db.GenerateWorkload(condsel.WorkloadOptions{Seed: 11, NumQueries: 4, Joins: 2, Filters: 2})
		if err != nil {
			panic(err)
		}
		pool := db.BuildStatistics(queries, 1, nil)
		fuzzDB = db
		fuzzEst = db.NewEstimator(pool, condsel.Diff).UseCache(condsel.NewSelCache(4096))
	})
	return fuzzDB, fuzzEst
}

// FuzzQueryBuilder drives Query().Join().Filter().Build() with a
// fuzzer-chosen op stream mixing valid attribute names (picked from the
// catalog by byte index) and a raw fuzzer string.
func FuzzQueryBuilder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, "fact.a0", int64(0), int64(10))
	f.Add([]byte{2, 0, 0, 2, 1, 1}, "", int64(-5), int64(5))
	f.Add([]byte{1, 9, 4, 200, 33}, "no.such", int64(math.MinInt64), int64(math.MaxInt64))
	f.Add([]byte{}, "fact", int64(7), int64(3))

	f.Fuzz(func(t *testing.T, ops []byte, raw string, lo, hi int64) {
		db, est := fuzzWorld()
		attrs := db.Attributes()
		pos := 0
		nextAttr := func() string {
			if pos >= len(ops) {
				return raw
			}
			a := attrs[int(ops[pos])%len(attrs)]
			pos++
			return a
		}
		b := db.Query()
		for pos < len(ops) {
			op := ops[pos]
			pos++
			switch op % 6 {
			case 0:
				b = b.Join(nextAttr(), nextAttr())
			case 1:
				b = b.Join(raw, nextAttr())
			case 2:
				b = b.Filter(nextAttr(), lo, hi)
			case 3:
				b = b.FilterEq(nextAttr(), lo)
			case 4:
				b = b.Filter(raw, lo, hi)
			case 5:
				b = b.FilterAtLeast(nextAttr(), lo)
			}
		}
		q, err := b.Build()
		if err != nil {
			if q != nil {
				t.Fatalf("Build returned both a query and error %v", err)
			}
			return // clean rejection is a valid outcome
		}
		s := q.String()
		if s == "" {
			t.Fatalf("built query renders empty")
		}
		if got := q.NumJoins() + q.NumFilters(); got != q.NumPredicates() {
			t.Fatalf("predicate accounting: %d joins + %d filters != %d total",
				q.NumJoins(), q.NumFilters(), q.NumPredicates())
		}
		// The documented contract: parsing a query's own rendering
		// reproduces the query.
		q2, err := db.ParseQuery(s)
		if err != nil {
			t.Fatalf("own rendering failed to parse: %v\nquery: %s", err, s)
		}
		if s2 := q2.String(); s2 != s {
			t.Fatalf("parse round-trip changed rendering:\n was: %s\n now: %s", s, s2)
		}
		// The full DP answers without failing and stays in range (cap the
		// DP size so a long op stream cannot stall the fuzzing engine).
		if q.NumPredicates() <= 8 {
			ans := est.Estimate(context.Background(), q)
			if ans.Err != nil || ans.Provenance.Tier != condsel.TierFullDP || ans.Provenance.FallbackReason != "" {
				t.Fatalf("estimate degraded (err %v, provenance %+v) for %s", ans.Err, ans.Provenance, s)
			}
			if sel := ans.Selectivity; math.IsNaN(sel) || sel < 0 || sel > 1+1e-9 {
				t.Fatalf("selectivity %v out of [0,1] for %s", sel, s)
			}
		}
	})
}
