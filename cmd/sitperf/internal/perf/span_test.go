package perf

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: the union counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out: only 90..100 counts
		{ID: 5, Parent: 2, Name: "a.child", Start: 15, End: 25},
		{ID: 6, Parent: 7, Name: "orphan", Start: 0, End: 5}, // parent not recorded
	}
	want := map[uint64]time.Duration{
		1: 100 - (60 - 10) - (100 - 90),
		2: 30 - 10,
		3: 30,
		4: 30,
		5: 10,
		6: 5,
	}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
	by := SelfByName(spans)
	if d := by["root"]; len(d) != 1 || d[0] != want[1] {
		t.Errorf("SelfByName root = %v, want [%v]", d, want[1])
	}
}

func TestRecorderDropsUntracedAndTakes(t *testing.T) {
	r := NewRecorder(serverIDs)
	if id := r.NewID(); id != serverIDs+1 {
		t.Fatalf("first ID = %d, want %d", id, serverIDs+1)
	}
	now := time.Now()
	r.Add(0, r.NewID(), 0, "untraced", now, now)
	r.Add(7, r.NewID(), 7, "traced", now, now.Add(time.Millisecond))
	got := r.Take()
	if len(got) != 1 || got[0].Name != "traced" || got[0].Dur() != time.Millisecond {
		t.Fatalf("Take = %+v, want the one traced span of 1ms", got)
	}
	if again := r.Take(); len(again) != 0 {
		t.Errorf("second Take = %+v, want none", again)
	}
}
