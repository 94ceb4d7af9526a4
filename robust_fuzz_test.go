package condsel_test

// Fuzz target for the fault-tolerant estimation surface: whatever pool
// snapshot the fuzzer invents — truncated JSON, inverted buckets, counts
// exceeding row totals — LoadPool either rejects it cleanly or the robust
// estimator answers with a finite, in-range estimate. Corrupt statistics
// that survive the load-time header check must be quarantined at first use,
// never served. Seed corpus lives in testdata/fuzz/FuzzRobustEstimate.

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	condsel "condsel"
)

var (
	robustFuzzOnce    sync.Once
	robustFuzzDB      *condsel.DB
	robustFuzzQueries []*condsel.Query
)

// robustFuzzWorld lazily builds one snowflake database and workload shared
// by all fuzz iterations. Only the pool varies per iteration (decoded from
// fuzzer bytes); the database and queries are read-only.
func robustFuzzWorld() (*condsel.DB, []*condsel.Query) {
	robustFuzzOnce.Do(func() {
		db := condsel.GenerateSnowflake(condsel.SnowflakeConfig{Seed: 11, FactRows: 300})
		queries, err := db.GenerateWorkload(condsel.WorkloadOptions{Seed: 11, NumQueries: 4, Joins: 2, Filters: 2})
		if err != nil {
			panic(err)
		}
		robustFuzzDB = db
		robustFuzzQueries = queries
	})
	return robustFuzzDB, robustFuzzQueries
}

func FuzzRobustEstimate(f *testing.F) {
	seeds := []string{
		// Well-formed single-statistic pool.
		`{"version":1,"sits":[{"attr":"product.id","diff":0,"hist":{"rows":40,"totalRows":40,"buckets":[{"Lo":0,"Hi":39,"Count":40,"Distinct":40}]}}]}`,
		// Inverted bucket range: passes the O(1) load check, quarantined on use.
		`{"version":1,"sits":[{"attr":"product.id","diff":0,"hist":{"rows":40,"buckets":[{"Lo":39,"Hi":0,"Count":40,"Distinct":40}]}}]}`,
		// Bucket counts exceeding the row total.
		`{"version":1,"sits":[{"attr":"product.id","diff":0,"hist":{"rows":4,"buckets":[{"Lo":0,"Hi":39,"Count":4000,"Distinct":40}]}}]}`,
		// Overlapping buckets.
		`{"version":1,"sits":[{"attr":"brand.id","diff":0.5,"hist":{"rows":40,"buckets":[{"Lo":0,"Hi":20,"Count":20,"Distinct":20},{"Lo":10,"Hi":39,"Count":20,"Distinct":20}]}}]}`,
		// Join-expression SIT with a bogus negative diff.
		`{"version":1,"sits":[{"attr":"brand.id","diff":-3,"expr":[{"join":true,"left":"product.category_fk","right":"category.id"}],"hist":{"rows":300,"buckets":[{"Lo":0,"Hi":9,"Count":300,"Distinct":10}]}}]}`,
		// Unknown attribute, wrong version, truncated JSON, not JSON at all.
		`{"version":1,"sits":[{"attr":"no.such","diff":0,"hist":{"rows":1,"buckets":[]}}]}`,
		`{"version":99,"sits":[]}`,
		`{"version":1,"sits":[{"attr":"product.id"`,
		`SIT(product.id | ...)`,
	}
	for _, s := range seeds {
		f.Add([]byte(s), byte(0))
	}

	f.Fuzz(func(t *testing.T, snapshot []byte, qpick byte) {
		db, queries := robustFuzzWorld()
		pool, err := db.LoadPool(bytes.NewReader(snapshot))
		if err != nil {
			return // clean rejection is a valid outcome
		}
		est := db.NewEstimator(pool, condsel.Diff)
		q := queries[int(qpick)%len(queries)]

		ans := est.Estimate(context.Background(), q)
		if ans.Err != nil {
			t.Fatalf("estimate failed: %v (tier %v, reason %q)", ans.Err, ans.Provenance.Tier, ans.Provenance.FallbackReason)
		}
		if sel := ans.Selectivity; math.IsNaN(sel) || sel < 0 || sel > 1 {
			t.Fatalf("selectivity %v out of [0,1] (tier %v, reason %q)", sel, ans.Provenance.Tier, ans.Provenance.FallbackReason)
		}
		if card := ans.Cardinality; math.IsNaN(card) || math.IsInf(card, 0) || card < 0 {
			t.Fatalf("cardinality %v invalid (tier %v, reason %q)", card, ans.Provenance.Tier, ans.Provenance.FallbackReason)
		}

		// Whatever was quarantined must be accounted for. Statistics rejected
		// at Add time are quarantined without ever registering, so healthy +
		// quarantined bounds the registered count from above.
		h := pool.Health()
		if h.SITs > pool.Size() || h.SITs+h.Quarantined < pool.Size() {
			t.Fatalf("health accounting: %d healthy + %d quarantined vs %d registered",
				h.SITs, h.Quarantined, pool.Size())
		}
		for id, reason := range h.Reasons {
			if reason == "" {
				t.Fatalf("quarantined %s with empty reason", id)
			}
		}
	})
}
