// Quickstart: generate a skewed snowflake database, build statistics on
// query expressions (SITs) for a query, and compare cardinality estimates
// with and without them against the exact answer.
package main

import (
	"context"
	"fmt"
	"log"

	condsel "condsel"
)

func main() {
	// A synthetic star/snowflake database in the style of the paper's
	// evaluation: Zipf-skewed foreign keys, dimension attributes correlated
	// with join fan-out, 10% dangling keys.
	db := condsel.GenerateSnowflake(condsel.SnowflakeConfig{Seed: 7, FactRows: 30000})
	fmt.Print(db.Summary())

	// "Sales of the most popular customers": the filter on customer.hot is
	// strongly correlated with the join fan-out, so the classic
	// independence assumption underestimates badly.
	q, err := db.Query().
		Join("sales.customer_fk", "customer.id").
		Filter("customer.hot", 9000, 10000).
		Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nquery:", q)

	// J2 pool: base histograms plus SITs over join expressions with at
	// most two join predicates.
	pool := db.BuildStatistics([]*condsel.Query{q}, 2, nil)
	noSit := pool.MaxJoins(0)
	fmt.Printf("statistics built: %d (of which %d base histograms)\n\n",
		pool.Size(), noSit.Size())

	ctx := context.Background()
	truth := db.ExactCardinality(q)
	base := db.NewEstimator(noSit, condsel.NInd).Estimate(ctx, q).Cardinality
	withSits := db.NewEstimator(pool, condsel.Diff).Estimate(ctx, q).Cardinality

	fmt.Printf("%-24s %12.0f\n", "true cardinality", truth)
	fmt.Printf("%-24s %12.0f   (%.1fx off)\n", "independence estimate", base, ratio(base, truth))
	fmt.Printf("%-24s %12.0f   (%.1fx off)\n", "with SITs (Diff model)", withSits, ratio(withSits, truth))

	fmt.Println("\nhow the estimate was assembled:")
	fmt.Print(db.NewEstimator(pool, condsel.Diff).Explain(q))
}

func ratio(est, truth float64) float64 {
	if est == 0 || truth == 0 {
		return 0
	}
	if est > truth {
		return est / truth
	}
	return truth / est
}
