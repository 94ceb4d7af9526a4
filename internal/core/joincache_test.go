package core

import (
	"testing"

	"condsel/internal/engine"
)

// TestRetireGeneration: retiring a pool generation drops exactly that
// generation's entries from both caches — the cross-query selectivity
// cache and the histogram-join cache — and the generation is matched as a
// structural key field, so numerically distinct generations (7 vs 70) can
// never alias. Not parallel: the histogram-join cache is process-global.
func TestRetireGeneration(t *testing.T) {
	ResetHistJoinCache()
	defer ResetHistJoinCache()
	histJoinCache.Put(histJoinKey{gen: 7, l: "a", r: "b"}, 0.5)
	histJoinCache.Put(histJoinKey{gen: 7, l: "a", r: "c"}, 0.25)
	histJoinCache.Put(histJoinKey{gen: 8, l: "a", r: "b"}, 0.75)
	histJoinCache.Put(histJoinKey{gen: 70, l: "a", r: "b"}, 0.1)

	sel := NewSelCache(64)
	selKey := func(gen uint64) CacheKey {
		return CacheKey{Model: "Diff", Gen: gen, Sig: engine.PredSig{Hash: 1}}
	}
	for _, gen := range []uint64{7, 8, 70} {
		sel.Put(selKey(gen), CacheEntry{})
	}

	if n := RetireGeneration(sel, 7); n != 3 {
		t.Fatalf("RetireGeneration(7) dropped %d entries, want 3 (2 join + 1 selectivity)", n)
	}
	if _, ok := histJoinCache.Get(histJoinKey{gen: 7, l: "a", r: "b"}); ok {
		t.Fatal("retired generation's join entry survived")
	}
	if _, ok := sel.Get(selKey(7)); ok {
		t.Fatal("retired generation's selectivity entry survived")
	}
	if v, ok := histJoinCache.Get(histJoinKey{gen: 8, l: "a", r: "b"}); !ok || v != 0.75 {
		t.Fatal("live generation's join entry was evicted")
	}
	if v, ok := histJoinCache.Get(histJoinKey{gen: 70, l: "a", r: "b"}); !ok || v != 0.1 {
		t.Fatal("generation 70 join entry evicted by generation 7 retirement")
	}
	for _, gen := range []uint64{8, 70} {
		if _, ok := sel.Get(selKey(gen)); !ok {
			t.Fatalf("generation %d selectivity entry evicted by generation 7 retirement", gen)
		}
	}
	if n := RetireGeneration(sel, 7); n != 0 {
		t.Fatalf("second retirement dropped %d entries, want 0", n)
	}

	// Without a selectivity cache only the join cache is purged.
	if n := RetireGeneration(nil, 8); n != 1 {
		t.Fatalf("RetireGeneration(nil, 8) dropped %d entries, want 1", n)
	}

	// Join keys are ordered: a⋈b and b⋈a are distinct computations.
	histJoinCache.Put(histJoinKey{gen: 9, l: "a", r: "b"}, 0.3)
	if _, ok := histJoinCache.Get(histJoinKey{gen: 9, l: "b", r: "a"}); ok {
		t.Fatal("reversed join key aliased the forward entry")
	}
}
