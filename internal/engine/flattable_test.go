package engine

import (
	"math/rand"
	"testing"
)

// tableKey is a reference-map key for FlatTable tests.
type tableKey struct{ hi, lo uint64 }

// randomTableKey draws keys the estimation tables use and their edge
// cases: key 0, small predicate sets and positions, and sets of 63
// predicates (bit 62 set), over a domain small enough that overwrites and
// repeat lookups are frequent.
func randomTableKey(rng *rand.Rand) tableKey {
	hi := uint64(rng.Intn(4))
	switch rng.Intn(4) {
	case 0:
		return tableKey{hi, 0}
	case 1:
		return tableKey{hi, uint64(1)<<62 | uint64(rng.Intn(64))}
	case 2:
		return tableKey{1<<62 | hi, uint64(rng.Intn(256))}
	}
	return tableKey{hi, uint64(rng.Intn(512))}
}

// TestFlatTableMatchesMap drives random Put/Get/overwrite sequences, with
// growth and Resets in between, against a Go map reference; after every
// Reset no slot may still hold a value, so no pointer survives it.
func TestFlatTableMatchesMap(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(16))
	var tab FlatTable[*int]
	ref := map[tableKey]*int{}
	for round := 0; round < 40; round++ {
		ops := rng.Intn(3000)
		for op := 0; op < ops; op++ {
			k := randomTableKey(rng)
			if rng.Intn(3) == 0 {
				v := new(int)
				*v = op
				tab.Put(k.hi, k.lo, v)
				ref[k] = v
				continue
			}
			got, ok := tab.Get(k.hi, k.lo)
			want, wantOK := ref[k]
			if ok != wantOK || got != want {
				t.Fatalf("round %d op %d: Get(%#x, %#x) = (%v, %v), want (%v, %v)",
					round, op, k.hi, k.lo, got, ok, want, wantOK)
			}
		}
		if tab.Len() != len(ref) {
			t.Fatalf("round %d: Len %d, want %d", round, tab.Len(), len(ref))
		}
		for k, want := range ref {
			if got, ok := tab.Get(k.hi, k.lo); !ok || got != want {
				t.Fatalf("round %d: lost key (%#x, %#x)", round, k.hi, k.lo)
			}
		}
		tab.Reset()
		clear(ref)
		if tab.Len() != 0 {
			t.Fatalf("round %d: Len %d after Reset", round, tab.Len())
		}
		for i, s := range tab.slots {
			if s != (tableSlot[*int]{}) {
				t.Fatalf("round %d: slot %d not cleared by Reset: %+v", round, i, s)
			}
		}
	}
}

// TestFlatTableResetTouchesOnlyUsedSlots: after a table has grown to 4,096
// entries, a Reset following k Puts clears those k slots and writes no
// other — the cost a pooled run pays per query is what the query used.
func TestFlatTableResetTouchesOnlyUsedSlots(t *testing.T) {
	t.Parallel()
	var tab FlatTable[uint64]
	for i := uint64(0); i < 4096; i++ {
		tab.Put(0, i, i)
	}
	tab.Reset()
	const k = 5
	for i := uint64(0); i < k; i++ {
		tab.Put(1, i<<40, i+1)
	}
	// Mark every empty slot. An empty slot is one with a zero hi word, so
	// the marks leave the table's contents unchanged; a Reset that swept
	// the whole array would erase them.
	const mark = 0xfeed
	for i := range tab.slots {
		if tab.slots[i].hi == 0 {
			tab.slots[i].lo = mark
		}
	}
	for i := uint64(0); i < k; i++ {
		if v, ok := tab.Get(1, i<<40); !ok || v != i+1 {
			t.Fatalf("marks disturbed key %d: (%v, %v)", i, v, ok)
		}
	}
	tab.Reset()
	marked := 0
	for _, s := range tab.slots {
		switch {
		case s.lo == mark && s.hi == 0 && s.val == 0:
			marked++
		case s != (tableSlot[uint64]{}):
			t.Fatalf("Reset left slot %+v", s)
		}
	}
	if want := len(tab.slots) - k; marked != want {
		t.Fatalf("Reset wrote %d slots, want only the %d used", len(tab.slots)-marked, k)
	}
}

// TestFlatTableRejectsTaggedHi: bit 63 of Hi tags occupied slots, so a key
// using it is a caller bug.
func TestFlatTableRejectsTaggedHi(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Put with bit 63 of Hi set did not panic")
		}
	}()
	var tab FlatTable[int]
	tab.Put(1<<63, 0, 1)
}

// TestPredsTablesAllocatesNothing: the robust ladder calls PredsTables once
// per request, cached reads included.
func TestPredsTablesAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	c := predTestCatalog()
	preds := []Pred{
		Join(c.MustAttr("R.a"), c.MustAttr("S.a")),
		Filter(c.MustAttr("R.b"), 0, 5),
		Filter(c.MustAttr("S.b"), 1, 1),
	}
	all := FullPredSet(len(preds))
	var sink TableSet
	if n := testing.AllocsPerRun(100, func() { sink |= PredsTables(c, preds, all) }); n != 0 {
		t.Fatalf("PredsTables allocates %.1f objects per call, want 0", n)
	}
	if sink != NewTableSet(0, 1) {
		t.Fatalf("PredsTables = %v, want {0,1}", sink)
	}
}

// BenchmarkFlatTable times one DP-shaped run's worth of table traffic: a
// miss, a Put and a hit for each of 256 predicate sets, then a Reset.
func BenchmarkFlatTable(b *testing.B) {
	var tab FlatTable[uint64]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for set := uint64(0); set < 256; set++ {
			if _, ok := tab.Get(0, set); !ok {
				tab.Put(0, set, set)
			}
			tab.Get(0, set)
		}
		tab.Reset()
	}
}
