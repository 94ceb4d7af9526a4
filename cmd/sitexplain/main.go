// Command sitexplain builds a query over the generated snowflake database
// and prints, side by side, the true cardinality, the classic
// independence-assumption estimate, the greedy view-matching (GVM)
// estimate, and the getSelectivity estimates under each error model —
// together with the decomposition getSelectivity chose.
//
// Predicates are given with repeatable flags:
//
//	sitexplain -join sales.customer_fk=customer.id \
//	           -filter customer.hot:9000:10000 \
//	           [-pool 2] [-fact 20000] [-seed 42]
//
// With no predicate flags, a random 3-join workload query is explained.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	condsel "condsel"
)

type repeated []string

func (r *repeated) String() string { return strings.Join(*r, ",") }

func (r *repeated) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	var joins, filters repeated
	flag.Var(&joins, "join", "equi-join predicate left=right (repeatable)")
	flag.Var(&filters, "filter", "range predicate attr:lo:hi (repeatable)")
	var (
		fact  = flag.Int("fact", 20000, "fact table rows")
		seed  = flag.Int64("seed", 42, "random seed")
		pool  = flag.Int("pool", 2, "SIT pool J_i (expressions with at most i joins)")
		query = flag.String("query", "", `textual query, e.g. "sales.customer_fk = customer.id AND customer.hot BETWEEN 9000 AND 10000"`)
	)
	flag.Parse()

	db := condsel.GenerateSnowflake(condsel.SnowflakeConfig{Seed: *seed, FactRows: *fact})

	var q *condsel.Query
	var err error
	if *query != "" {
		q, err = db.ParseQuery(*query)
	} else {
		q, err = buildQuery(db, joins, filters, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sitexplain:", err)
		os.Exit(2)
	}
	fmt.Println("query:", q)

	stats := db.BuildStatistics([]*condsel.Query{q}, *pool, nil)
	noSit := stats.MaxJoins(0)
	fmt.Printf("statistics: %d in pool J%d (%d base histograms)\n\n",
		stats.Size(), *pool, noSit.Size())

	ctx := context.Background()
	truth := db.ExactCardinality(q)
	fmt.Printf("%-28s %14.0f\n", "true cardinality", truth)
	fmt.Printf("%-28s %14.0f\n", "noSit (independence)",
		db.NewEstimator(noSit, condsel.NInd).Estimate(ctx, q).Cardinality)
	fmt.Printf("%-28s %14.0f\n", "GVM (greedy view matching)",
		db.NewGVMEstimator(stats).Cardinality(q))
	for _, m := range []condsel.Model{condsel.NInd, condsel.Diff, condsel.Opt} {
		fmt.Printf("%-28s %14.0f\n", "getSelectivity / "+m.String(),
			db.NewEstimator(stats, m).Estimate(ctx, q).Cardinality)
	}

	fmt.Println("\nchosen decomposition (Diff):")
	fmt.Print(db.NewEstimator(stats, condsel.Diff).Explain(q))

	if q.NumJoins() > 0 {
		if plan, cost, err := db.NewEstimator(stats, condsel.Diff).BestPlan(q); err == nil {
			fmt.Printf("\nbest join order (C_out %.0f): %s\n", cost, plan)
		}
	}
}

func buildQuery(db *condsel.DB, joins, filters repeated, seed int64) (*condsel.Query, error) {
	if len(joins) == 0 && len(filters) == 0 {
		wl, err := db.GenerateWorkload(condsel.WorkloadOptions{Seed: seed, NumQueries: 1, Joins: 3, Filters: 3})
		if err != nil {
			return nil, err
		}
		return wl[0], nil
	}
	b := db.Query()
	for _, j := range joins {
		parts := strings.SplitN(j, "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad -join %q, want left=right", j)
		}
		b = b.Join(strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]))
	}
	for _, f := range filters {
		parts := strings.Split(f, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad -filter %q, want attr:lo:hi", f)
		}
		lo, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -filter lo in %q: %v", f, err)
		}
		hi, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -filter hi in %q: %v", f, err)
		}
		b = b.Filter(strings.TrimSpace(parts[0]), lo, hi)
	}
	return b.Build()
}
