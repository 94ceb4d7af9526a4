package engine

import (
	"math/rand"
	"testing"
)

// compCase builds a random catalog and predicate slice mixing joins and
// filters over a random number of tables, so subsets exhibit every component
// shape: singletons, chains, and fully disconnected clusters.
func compCase(rng *rand.Rand) (*Catalog, []Pred) {
	cat := NewCatalog()
	nTables := 2 + rng.Intn(4)
	for t := 0; t < nTables; t++ {
		cols := make([]*Column, 2)
		for ci := range cols {
			vals := make([]int64, 4)
			for i := range vals {
				vals[i] = int64(rng.Intn(5))
			}
			cols[ci] = &Column{Name: string(rune('a' + ci)), Vals: vals}
		}
		cat.MustAddTable(&Table{Name: string(rune('A' + t)), Cols: cols})
	}
	nPreds := 2 + rng.Intn(8)
	preds := make([]Pred, 0, nPreds)
	for len(preds) < nPreds {
		t1 := TableID(rng.Intn(nTables))
		if rng.Intn(2) == 0 {
			t2 := TableID(rng.Intn(nTables))
			preds = append(preds, Join(cat.AttrsOfTable(t1)[rng.Intn(2)], cat.AttrsOfTable(t2)[rng.Intn(2)]))
		} else {
			preds = append(preds, Filter(cat.AttrsOfTable(t1)[rng.Intn(2)], 0, int64(rng.Intn(5))))
		}
	}
	return cat, preds
}

// TestCompIndexMatchesComponents: the index returns exactly what the
// union-find Components returns — same partition, same order — for every
// subset of many random predicate slices, and ComponentWith agrees with a
// scan over PredsTables. One index is reset across all trials.
func TestCompIndexMatchesComponents(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(41))
	var ci CompIndex // one index across trials: Reset must drop the last query's state
	for trial := 0; trial < 200; trial++ {
		cat, preds := compCase(rng)
		ci.Reset(cat, preds)
		full := FullPredSet(len(preds))
		for set := PredSet(0); set <= full; set++ {
			want := Components(cat, preds, set)
			got := ci.Components(set)
			if len(got) != len(want) {
				t.Fatalf("trial %d set %v: %d components, want %d", trial, set, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("trial %d set %v: component %d = %v, want %v", trial, set, k, got[k], want[k])
				}
			}
			// Repeat (memoized) answers are identical.
			again := ci.Components(set)
			for k := range got {
				if again[k] != got[k] {
					t.Fatalf("trial %d set %v: memoized answer diverged", trial, set)
				}
			}
			for tab := TableID(0); tab < 6; tab++ {
				var want PredSet
				for _, comp := range Components(cat, preds, set) {
					if PredsTables(cat, preds, comp).Has(tab) {
						want = comp
						break
					}
				}
				if got := ci.ComponentWith(set, tab); got != want {
					t.Fatalf("trial %d set %v table %d: ComponentWith %v, want %v", trial, set, tab, got, want)
				}
			}
		}
	}
}
