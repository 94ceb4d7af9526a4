package condsel_test

// Concurrency and cross-query-cache proofs for the estimation service
// layer. Run with `go test -race` — the stress tests are the repo's
// data-race proof for a shared Estimator; the property tests prove the
// selectivity cache never changes an estimate (cache-on and cache-off are
// bit-identical under every error model).
//
// Every test derives its randomness from a constant seed and logs that seed
// on failure so runs reproduce exactly.

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	condsel "condsel"
)

// stressSeed seeds all shuffles in this file; logged on failure.
const stressSeed int64 = 20260805

// logSeedOnFailure makes any failing test print its seed for reproduction.
func logSeedOnFailure(t *testing.T, seed int64) {
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("reproduce with seed=%d", seed)
		}
	})
}

// stressWorld builds a small snowflake database, a workload, a J2 pool and
// per-query exact baselines shared by the tests below.
type stressWorld struct {
	db      *condsel.DB
	queries []*condsel.Query
	pool    *condsel.Pool
}

func buildStressWorld(t *testing.T, factRows, numQueries int) *stressWorld {
	t.Helper()
	db := condsel.GenerateSnowflake(condsel.SnowflakeConfig{Seed: stressSeed, FactRows: factRows})
	queries, err := db.GenerateWorkload(condsel.WorkloadOptions{
		Seed:       stressSeed,
		NumQueries: numQueries,
		Joins:      3,
		Filters:    3,
	})
	if err != nil {
		t.Fatalf("seed %d: workload: %v", stressSeed, err)
	}
	return &stressWorld{db: db, queries: queries, pool: db.BuildStatistics(queries, 2, nil)}
}

// TestEstimatorConcurrentStress hammers one shared Estimator from 16
// goroutines over independently shuffled copies of the workload and checks
// every concurrent result bit-matches the sequential baseline. It runs with
// the cross-query cache both detached and attached; under -race it is the
// thread-safety proof for the whole estimation stack (core DP, pool
// candidate matching, histograms, selcache).
func TestEstimatorConcurrentStress(t *testing.T) {
	t.Parallel()
	logSeedOnFailure(t, stressSeed)
	w := buildStressWorld(t, 3000, 16)

	for _, tc := range []struct {
		name  string
		model condsel.Model
		cache *condsel.SelCache
	}{
		{"nInd-nocache", condsel.NInd, nil},
		{"Diff-nocache", condsel.Diff, nil},
		{"Diff-cache", condsel.Diff, condsel.NewSelCache(4096)},
		{"Diff-tiny-cache", condsel.Diff, condsel.NewSelCache(32)}, // eviction under contention
	} {
		t.Run(tc.name, func(t *testing.T) {
			logSeedOnFailure(t, stressSeed)
			est := w.db.NewEstimator(w.pool, tc.model)
			if tc.cache != nil {
				est.UseCache(tc.cache)
			}
			// Sequential baseline from an independent, cache-less estimator.
			baseline := w.db.NewEstimator(w.pool, tc.model).EstimateBatch(context.Background(), w.queries, 1)

			const goroutines = 16
			const rounds = 3
			var wg sync.WaitGroup
			errCh := make(chan string, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(stressSeed + int64(g)))
					order := rng.Perm(len(w.queries))
					for r := 0; r < rounds; r++ {
						rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
						for _, qi := range order {
							q := w.queries[qi]
							if got := est.Estimate(context.Background(), q); got != baseline[qi] {
								errCh <- q.String()
								return
							}
							// Sub-query sessions exercise the memo path too.
							run := est.Run(q)
							if _, err := run.Selectivity(0, 1); err != nil {
								errCh <- err.Error()
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errCh)
			for msg := range errCh {
				t.Errorf("seed %d: concurrent estimate diverged from sequential baseline: %s", stressSeed, msg)
			}
			if tc.cache != nil {
				st := tc.cache.Stats()
				if st.Hits == 0 {
					t.Errorf("seed %d: shared cache saw no hits under 16 goroutines: %+v", stressSeed, st)
				}
				if st.Entries > st.Capacity {
					t.Errorf("seed %d: cache overflow: %+v", stressSeed, st)
				}
			}
		})
	}
}

// TestOptModelConcurrentStress drives the oracle-backed Opt model — the one
// path whose shared state (the exact evaluator's memo) is mutex-guarded —
// from 16 goroutines on a deliberately tiny database.
func TestOptModelConcurrentStress(t *testing.T) {
	t.Parallel()
	logSeedOnFailure(t, stressSeed)
	w := buildStressWorld(t, 600, 6)
	est := w.db.NewEstimator(w.pool, condsel.Opt).UseCache(condsel.NewSelCache(1024))

	baseline := w.db.NewEstimator(w.pool, condsel.Opt).EstimateBatch(context.Background(), w.queries, 1)

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(stressSeed + 100 + int64(g)))
			for _, qi := range rng.Perm(len(w.queries)) {
				if got := est.Estimate(context.Background(), w.queries[qi]); got != baseline[qi] {
					t.Errorf("seed %d: Opt concurrent estimate %v != baseline %v for %s",
						stressSeed, got, baseline[qi], w.queries[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheEquivalenceAllModels is the cache-correctness property: for the
// generated snowflake workload, estimates with the cross-query cache
// enabled are bit-identical to estimates with it disabled, under NInd, Diff
// and Opt — on a cold cache, on a warm cache, and across estimators sharing
// one cache. With and without the cache, every Estimate is also the full
// DP's answer, bit-identical to a per-query Run.
func TestCacheEquivalenceAllModels(t *testing.T) {
	t.Parallel()
	logSeedOnFailure(t, stressSeed)
	w := buildStressWorld(t, 2000, 12)

	for _, model := range []condsel.Model{condsel.NInd, condsel.Diff, condsel.Opt} {
		t.Run(model.String(), func(t *testing.T) {
			logSeedOnFailure(t, stressSeed)
			plain := w.db.NewEstimator(w.pool, model)
			cache := condsel.NewSelCache(8192)
			cached := w.db.NewEstimator(w.pool, model).UseCache(cache)

			for pass := 0; pass < 2; pass++ { // pass 1 runs against a warm cache
				for qi, q := range w.queries {
					want := plain.Estimate(context.Background(), q)
					if got := cached.Estimate(context.Background(), q); got != want {
						t.Fatalf("seed %d pass %d query %d: cached %+v != plain %+v\n%s",
							stressSeed, pass, qi, got, want, q)
					}
				}
			}
			checkEstimateMatchesRun(t, plain, w.queries)
			checkEstimateMatchesRun(t, cached, w.queries)
			st := cache.Stats()
			if st.Hits == 0 {
				t.Fatalf("seed %d: warm pass produced no cache hits: %+v", stressSeed, st)
			}

			// A second estimator sharing the cache must also agree.
			shared := w.db.NewEstimator(w.pool, model).UseCache(cache)
			for qi, q := range w.queries {
				if got, want := shared.Estimate(context.Background(), q), plain.Estimate(context.Background(), q); got != want {
					t.Fatalf("seed %d query %d: shared-cache estimator %v != plain %v",
						stressSeed, qi, got, want)
				}
			}
		})
	}
}

// TestCacheExplainEquivalence: the decomposition rendering (factor chain)
// must also be unaffected by the cache when serving a query whose predicate
// layout matches the one that populated it.
func TestCacheExplainEquivalence(t *testing.T) {
	t.Parallel()
	logSeedOnFailure(t, stressSeed)
	w := buildStressWorld(t, 2000, 6)
	plain := w.db.NewEstimator(w.pool, condsel.Diff)
	cached := w.db.NewEstimator(w.pool, condsel.Diff).UseCache(condsel.NewSelCache(4096))
	for pass := 0; pass < 2; pass++ {
		for qi, q := range w.queries {
			if got, want := cached.Explain(q), plain.Explain(q); got != want {
				t.Fatalf("seed %d pass %d query %d: explain diverged\n--- cached ---\n%s--- plain ---\n%s",
					stressSeed, pass, qi, got, want)
			}
		}
	}
}

// TestEstimateBatchMatchesSequential: the worker-pool fan-out returns
// exactly what per-query sequential Estimate calls return, in input order,
// with and without the cache, for several worker counts.
func TestEstimateBatchMatchesSequential(t *testing.T) {
	t.Parallel()
	logSeedOnFailure(t, stressSeed)
	w := buildStressWorld(t, 2000, 12)
	est := w.db.NewEstimator(w.pool, condsel.Diff)
	want := make([]condsel.Answer, len(w.queries))
	for i, q := range w.queries {
		want[i] = est.Estimate(context.Background(), q)
	}
	cachedEst := w.db.NewEstimator(w.pool, condsel.Diff).UseCache(condsel.NewSelCache(4096))
	for _, tc := range []struct {
		est     *condsel.Estimator
		workers []int
	}{
		{est, []int{0, 1, 4, 8, 16, 64}},
		{cachedEst, []int{1, 8}},
	} {
		for _, workers := range tc.workers {
			got := tc.est.EstimateBatch(context.Background(), w.queries, workers)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d: cached=%v workers=%d query %d: batch %+v != sequential %+v",
						stressSeed, tc.est.Cache() != nil, workers, i, got[i], want[i])
				}
			}
		}
	}
	if got := est.EstimateBatch(context.Background(), nil, 8); len(got) != 0 {
		t.Fatalf("empty batch returned %v", got)
	}
}
