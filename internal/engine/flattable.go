package engine

// FlatTable is a flat open-addressing hash table from a packed key pair
// (Hi, Lo) to V. It is the per-run memo of the estimation hot path: the
// getSelectivity DP, the component index and the SIT matcher all key their
// state by a predicate set, optionally paired with an attribute, and a
// FlatTable answers those lookups without Go map hashing, bucket chains or
// per-entry allocation.
//
// Keys are two words so one type serves both shapes: a PredSet alone is
// (0, set), an (attribute, set) pair is (attribute, set). Lo may be any
// uint64; Hi must leave bit 63 clear, because the table tags occupied slots
// with it. Slots are probed linearly in a power-of-two array that doubles
// at three-quarters load.
//
// Reset empties the table in time proportional to the entries it holds,
// not to its capacity: occupied slot indices are listed in insertion order,
// and Reset zeroes exactly those slots. A pooled owner therefore keeps the
// capacity a large query grew without paying to clear it on every small
// one, and a reset table holds no value — so no pointer — from before.
//
// The zero FlatTable is empty and ready to use. A FlatTable is
// single-goroutine state.
type FlatTable[V any] struct {
	slots []tableSlot[V]
	used  []uint32 // indices of occupied slots, in insertion order
}

type tableSlot[V any] struct {
	hi, lo uint64 // hi carries tableOccupied; a zero hi marks an empty slot
	val    V
}

// tableOccupied tags the Hi word of every occupied slot.
const tableOccupied = 1 << 63

// tableMinSlots is the slot array's first allocation.
const tableMinSlots = 16

// tableHash mixes a key pair into a slot index seed.
func tableHash(hi, lo uint64) uint64 {
	return mix64(lo ^ hi*0x9e3779b97f4a7c15)
}

// Len returns the number of entries.
func (t *FlatTable[V]) Len() int { return len(t.used) }

// Get returns the value stored under (hi, lo).
func (t *FlatTable[V]) Get(hi, lo uint64) (V, bool) {
	if len(t.used) > 0 {
		mask := uint64(len(t.slots) - 1)
		tag := hi | tableOccupied
		for i := tableHash(hi, lo) & mask; ; i = (i + 1) & mask {
			s := &t.slots[i]
			if s.hi == tag && s.lo == lo {
				return s.val, true
			}
			if s.hi == 0 {
				break
			}
		}
	}
	var zero V
	return zero, false
}

// Put stores v under (hi, lo), replacing any previous value. It panics if
// hi has bit 63 set.
func (t *FlatTable[V]) Put(hi, lo uint64, v V) {
	if hi&tableOccupied != 0 {
		panic("engine: FlatTable key Hi must leave bit 63 clear")
	}
	if 4*(len(t.used)+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	tag := hi | tableOccupied
	for i := tableHash(hi, lo) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.hi == tag && s.lo == lo {
			s.val = v
			return
		}
		if s.hi == 0 {
			s.hi, s.lo, s.val = tag, lo, v
			t.used = append(t.used, uint32(i))
			return
		}
	}
}

// grow doubles the slot array and reinserts every entry, keeping the
// insertion order of the used list.
func (t *FlatTable[V]) grow() {
	n := 2 * len(t.slots)
	if n < tableMinSlots {
		n = tableMinSlots
	}
	old := t.slots
	t.slots = make([]tableSlot[V], n)
	mask := uint64(n - 1)
	for j, oi := range t.used {
		s := &old[oi]
		i := tableHash(s.hi&^tableOccupied, s.lo) & mask
		for t.slots[i].hi != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = *s
		t.used[j] = uint32(i)
	}
}

// Reset removes every entry, zeroing only the slots in use, and keeps the
// capacity.
func (t *FlatTable[V]) Reset() {
	for _, i := range t.used {
		t.slots[i] = tableSlot[V]{}
	}
	t.used = t.used[:0]
}
