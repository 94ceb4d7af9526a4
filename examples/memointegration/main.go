// Memointegration demonstrates the paper's §4.2 optimizer coupling: instead
// of running the full getSelectivity dynamic program, selectivity
// estimation is driven by the decompositions a Cascades-style memo's
// entries induce while transformation rules explore alternative plans.
//
// The example compares, for several workload queries:
//
//   - the exact cardinality,
//   - the classic independence estimate,
//   - the full getSelectivity estimate (Diff model), and
//   - the memo-coupled estimate (same statistics, search pruned to
//     optimizer-explored plans).
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	condsel "condsel"
)

func main() {
	db := condsel.GenerateSnowflake(condsel.SnowflakeConfig{Seed: 3, FactRows: 20000})
	wl, err := db.GenerateWorkload(condsel.WorkloadOptions{
		Seed: 3, NumQueries: 5, Joins: 3, Filters: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	pool := db.BuildStatistics(wl, 2, nil)
	noSit := pool.MaxJoins(0)

	fmt.Printf("%4s %14s %14s %14s %14s\n",
		"qry", "true", "independence", "getSelectivity", "memo-coupled")
	ctx := context.Background()
	var fullErr, coupledErr float64
	for i, q := range wl {
		truth := db.ExactCardinality(q)
		base := db.NewEstimator(noSit, condsel.NInd).Estimate(ctx, q).Cardinality
		est := db.NewEstimator(pool, condsel.Diff)
		full := est.Estimate(ctx, q).Cardinality
		coupled, err := est.CoupledCardinality(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d %14.0f %14.0f %14.0f %14.0f\n", i, truth, base, full, coupled)
		fullErr += math.Abs(full - truth)
		coupledErr += math.Abs(coupled - truth)
	}
	n := float64(len(wl))
	fmt.Printf("\navg abs error: getSelectivity %.0f, memo-coupled %.0f\n",
		fullErr/n, coupledErr/n)
	fmt.Println("\nThe coupled estimator explores only optimizer-induced decompositions;")
	fmt.Println("its accuracy approaches the full dynamic program as exploration widens,")
	fmt.Println("at a fraction of the integration cost in an existing optimizer (§4.2).")
}
