package cluster

import "testing"

// TestStampNewer: fencing order is lexicographic (epoch, gen); equal is not
// newer.
func TestStampNewer(t *testing.T) {
	cases := []struct {
		s, o Stamp
		want bool
	}{
		{Stamp{EpochOf(2), 1}, Stamp{EpochOf(1), 99}, true},  // higher epoch dominates any gen
		{Stamp{EpochOf(1), 99}, Stamp{EpochOf(2), 1}, false}, // lower epoch never wins
		{Stamp{EpochOf(1), 5}, Stamp{EpochOf(1), 4}, true},   // same epoch: gen decides
		{Stamp{EpochOf(1), 4}, Stamp{EpochOf(1), 5}, false},  // older gen
		{Stamp{EpochOf(1), 5}, Stamp{EpochOf(1), 5}, false},  // equal is not newer
		{Stamp{EpochOf(1), 1}, Stamp{}, true},                // anything beats the zero stamp
		{Stamp{}, Stamp{}, false},                            // zero vs zero
	}
	for _, c := range cases {
		if got := c.s.Newer(c.o); got != c.want {
			t.Errorf("Stamp%v.Newer(%v) = %v, want %v", c.s, c.o, got, c.want)
		}
	}
}

// TestGenVectorFences: Admit accepts strictly newer stamps only, counts
// rejections, and a refused stamp changes nothing.
func TestGenVectorFences(t *testing.T) {
	v := NewGenVector()
	if !v.Admit("b", Stamp{EpochOf(1), 10}) {
		t.Fatal("first stamp refused")
	}
	if v.Admit("b", Stamp{EpochOf(1), 10}) {
		t.Fatal("duplicate stamp admitted")
	}
	if v.Admit("b", Stamp{EpochOf(1), 9}) {
		t.Fatal("older gen admitted")
	}
	if v.Admit("b", Stamp{EpochOf(0), 99}) {
		t.Fatal("older epoch admitted despite higher gen")
	}
	if got := v.Get("b"); got != (Stamp{EpochOf(1), 10}) {
		t.Fatalf("rejections moved the admitted stamp to %v", got)
	}
	if !v.Admit("b", Stamp{EpochOf(2), 1}) {
		t.Fatal("epoch bump refused")
	}
	if got := v.Rejected(); got != 3 {
		t.Fatalf("Rejected = %d, want 3", got)
	}
	snap := v.Snapshot()
	if len(snap) != 1 || snap[0].Node != "b" || snap[0].Stamp != (Stamp{EpochOf(2), 1}) {
		t.Fatalf("Snapshot = %+v", snap)
	}
}
