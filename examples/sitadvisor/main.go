// Sitadvisor demonstrates using the estimator as a *statistics advisor*:
// given a workload, it scores every candidate SIT by how much adding it
// reduces the workload's estimation error, and greedily recommends a small
// set to materialize. This is the natural follow-on application the paper's
// framework enables (which SITs are worth their storage?).
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"sort"
	"strings"

	condsel "condsel"
)

const (
	factRows   = 15000
	numQueries = 8
	budget     = 5 // SITs to recommend
)

// candidate is one SIT the advisor may materialize.
type candidate struct {
	attr string
	join [2]string
}

func (c candidate) desc() string {
	return fmt.Sprintf("SIT(%s | %s = %s)", c.attr, c.join[0], c.join[1])
}

func main() {
	db := condsel.GenerateSnowflake(condsel.SnowflakeConfig{Seed: 11, FactRows: factRows})
	// Wide filters keep the query results (and therefore the absolute
	// estimation errors) large enough that SIT choices matter visibly.
	wl, err := db.GenerateWorkload(condsel.WorkloadOptions{
		Seed: 11, NumQueries: numQueries, Joins: 2, Filters: 2,
		TargetSelectivity: 0.3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d random 2-join queries over the snowflake schema\n", len(wl))

	truth := make([]float64, len(wl))
	for i, q := range wl {
		truth[i] = db.ExactCardinality(q)
	}
	workloadErr := func(pool *condsel.Pool) float64 {
		est := db.NewEstimator(pool, condsel.Diff)
		var sum float64
		for i, q := range wl {
			sum += math.Abs(est.Estimate(context.Background(), q).Cardinality - truth[i])
		}
		return sum / float64(len(wl))
	}

	// buildPool assembles base histograms plus the given SITs. SIT builds
	// are cheap to repeat: the database's evaluator memoizes join results.
	buildPool := func(chosen []candidate) *condsel.Pool {
		p := db.NewPool(nil)
		for _, a := range db.Attributes() {
			if err := p.AddBaseHistogram(a); err != nil {
				log.Fatal(err)
			}
		}
		for _, c := range chosen {
			if err := p.AddSIT(c.attr, c.join); err != nil {
				log.Fatal(err)
			}
		}
		return p
	}

	baseErr := workloadErr(buildPool(nil))
	fmt.Printf("%-44s %14.0f\n\n", "workload avg abs error, base histograms only", baseErr)

	cands := candidates(db)
	fmt.Printf("candidate single-join SITs: %d; greedy budget: %d\n\n", len(cands), budget)

	var chosen []candidate
	curErr := baseErr
	for round := 0; round < budget; round++ {
		bestIdx, bestErr := -1, curErr
		for i, c := range cands {
			if containsCand(chosen, c) {
				continue
			}
			e := workloadErr(buildPool(append(append([]candidate{}, chosen...), c)))
			if e < bestErr {
				bestIdx, bestErr = i, e
			}
		}
		if bestIdx < 0 {
			break
		}
		fmt.Printf("  %d. %-58s error %8.0f → %8.0f\n",
			round+1, cands[bestIdx].desc(), curErr, bestErr)
		chosen = append(chosen, cands[bestIdx])
		curErr = bestErr
	}

	fmt.Printf("\n%-44s %14.0f\n", "workload avg abs error with recommendations", curErr)
	if baseErr > 0 {
		fmt.Printf("%-44s %13.1f%%\n", "error reduction", 100*(1-curErr/baseErr))
	}
}

// candidates enumerates SIT(attr | edge) for every filterable attribute and
// every schema edge touching the attribute's table.
func candidates(db *condsel.DB) []candidate {
	edges, err := db.SnowflakeJoins()
	if err != nil {
		log.Fatal(err)
	}
	tableOf := func(attr string) string { return attr[:strings.IndexByte(attr, '.')] }
	var attrs []string
	for _, a := range db.Attributes() {
		for _, suffix := range []string{".hot", ".u1", ".z1", ".c1", ".u2"} {
			if strings.HasSuffix(a, suffix) {
				attrs = append(attrs, a)
			}
		}
	}
	sort.Strings(attrs)
	var out []candidate
	for _, a := range attrs {
		t := tableOf(a)
		for _, e := range edges {
			if tableOf(e[0]) == t || tableOf(e[1]) == t {
				out = append(out, candidate{attr: a, join: e})
			}
		}
	}
	return out
}

func containsCand(list []candidate, c candidate) bool {
	for _, x := range list {
		if x == c {
			return true
		}
	}
	return false
}
