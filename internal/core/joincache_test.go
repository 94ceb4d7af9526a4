package core

import (
	"testing"

	"condsel/internal/engine"
)

// TestCacheKeysSeparateGenerations: both caches — the cross-query
// selectivity cache and the histogram-join cache — carry the pool
// generation as a structural key field, so numerically distinct
// generations (7 vs 70) never alias and a generation's entries are served
// only under its own keys. Join keys are ordered: a⋈b and b⋈a are distinct
// computations. Not parallel: the histogram-join cache is process-global.
func TestCacheKeysSeparateGenerations(t *testing.T) {
	ResetHistJoinCache()
	defer ResetHistJoinCache()
	join := map[histJoinKey]float64{
		{gen: 7, l: "a", r: "b"}:  0.5,
		{gen: 7, l: "a", r: "c"}:  0.25,
		{gen: 8, l: "a", r: "b"}:  0.75,
		{gen: 70, l: "a", r: "b"}: 0.1,
	}
	for k, v := range join {
		histJoinCache.Put(k, v)
	}
	for k, want := range join {
		if v, ok := histJoinCache.Get(k); !ok || v != want {
			t.Fatalf("join entry %+v = (%v, %v), want %v", k, v, ok, want)
		}
	}
	if _, ok := histJoinCache.Get(histJoinKey{gen: 77, l: "a", r: "b"}); ok {
		t.Fatal("an unseen generation's join key hit another generation's entry")
	}
	if _, ok := histJoinCache.Get(histJoinKey{gen: 7, l: "b", r: "a"}); ok {
		t.Fatal("reversed join key aliased the forward entry")
	}

	sel := NewSelCache(64)
	selKey := func(gen uint64) CacheKey {
		return CacheKey{Model: "Diff", Gen: gen, Sig: engine.PredSig{Hash: 1}}
	}
	for _, gen := range []uint64{7, 8, 70} {
		sel.Put(selKey(gen), CacheEntry{decomp: decomp{Result: Result{Sel: 1 / float64(gen)}}})
	}
	for _, gen := range []uint64{7, 8, 70} {
		if e, ok := sel.Get(selKey(gen)); !ok || e.Sel != 1/float64(gen) {
			t.Fatalf("generation %d selectivity entry = (%v, %v), want its own", gen, e.Sel, ok)
		}
	}
	if _, ok := sel.Get(selKey(77)); ok {
		t.Fatal("an unseen generation's selectivity key hit another generation's entry")
	}
}
