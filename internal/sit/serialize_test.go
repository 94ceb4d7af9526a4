package sit

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"condsel/internal/engine"
)

func TestPoolSerializationRoundTrip(t *testing.T) {
	t.Parallel()
	cat, a := shopDB(rand.New(rand.NewSource(50)), 300)
	join := engine.Join(a["l.oid"], a["o.id"])
	q := engine.NewQuery(cat, []engine.Pred{
		engine.Filter(a["o.price"], 0, 500),
		join,
	})
	b := NewBuilder(cat)
	orig := BuildWorkloadPool(b, []*engine.Query{q}, 1)

	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadPool(cat, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Size() != orig.Size() {
		t.Fatalf("size %d after round trip, want %d", restored.Size(), orig.Size())
	}

	// Every SIT must produce identical estimates after the round trip.
	origSits := orig.SITs()
	restSits := restored.SITs()
	for i := range origSits {
		o, r := origSits[i], restSits[i]
		if o.ID() != r.ID() {
			t.Fatalf("SIT %d identity changed: %q vs %q", i, o.ID(), r.ID())
		}
		if o.Diff != r.Diff {
			t.Fatalf("SIT %d diff changed: %v vs %v", i, o.Diff, r.Diff)
		}
		for _, probe := range [][2]int64{{0, 100}, {200, 800}, {-5, 5}} {
			a := o.Hist.EstimateRange(probe[0], probe[1])
			b := r.Hist.EstimateRange(probe[0], probe[1])
			if a != b {
				t.Fatalf("SIT %d estimate changed on [%d,%d]: %v vs %v",
					i, probe[0], probe[1], a, b)
			}
		}
	}
}

func TestReadPoolErrors(t *testing.T) {
	t.Parallel()
	cat, _ := shopDB(rand.New(rand.NewSource(51)), 50)
	if _, err := ReadPool(cat, strings.NewReader("{broken")); err == nil {
		t.Errorf("broken JSON accepted")
	}
	if _, err := ReadPool(cat, strings.NewReader(`{"version":99,"sits":[]}`)); err == nil {
		t.Errorf("future version accepted")
	}
	if _, err := ReadPool(cat, strings.NewReader(
		`{"version":1,"sits":[{"attr":"nope.nope","diff":0,"hist":{"rows":0,"buckets":[]}}]}`)); err == nil {
		t.Errorf("unknown attribute accepted")
	}
	if _, err := ReadPool(cat, strings.NewReader(
		`{"version":1,"sits":[{"attr":"orders.price","expr":[{"join":true,"left":"zzz.z","right":"orders.id"}],"diff":0,"hist":{"rows":0,"buckets":[]}}]}`)); err == nil {
		t.Errorf("unknown join attribute accepted")
	}
}

func TestWriteToRejectsHistlessSIT(t *testing.T) {
	t.Parallel()
	cat, a := shopDB(rand.New(rand.NewSource(52)), 50)
	pool := NewPool(cat)
	pool.Add(NewSIT(cat, a["o.price"], nil, nil, 0))
	var buf bytes.Buffer
	if err := pool.Encode(&buf); err == nil {
		t.Fatalf("histogram-less SIT serialized")
	}
}

func TestPool2DSerializationRoundTrip(t *testing.T) {
	t.Parallel()
	cat, a := shopDB(rand.New(rand.NewSource(53)), 200)
	b := NewBuilder(cat)
	pool := NewPool(cat)
	pool.Add(b.BuildBase(a["o.price"]))
	s2d, err := b.Build2D(a["o.id"], a["o.price"], nil)
	if err != nil {
		t.Fatal(err)
	}
	pool.Add2D(s2d)

	var buf bytes.Buffer
	if err := pool.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadPool(cat, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Size2D() != 1 {
		t.Fatalf("Size2D after round trip = %d", restored.Size2D())
	}
	orig := pool.SITs2D()[0]
	rest := restored.SITs2D()[0]
	if orig.ID() != rest.ID() {
		t.Fatalf("2-D identity changed: %q vs %q", orig.ID(), rest.ID())
	}
	// Derived conditional estimates must survive unchanged.
	other := b.BuildBase(a["l.oid"])
	s1, h1 := orig.Hist.JoinOnX(other.Hist)
	s2, h2 := rest.Hist.JoinOnX(other.Hist)
	if s1 != s2 || h1.EstimateRange(0, 500) != h2.EstimateRange(0, 500) {
		t.Fatalf("2-D derivation changed after round trip")
	}
}

// TestReadPoolQuarantinesMalformed2D: a snapshot whose 2-D histogram is
// structurally broken loads without it. The SIT is not added, and the pool
// records why, as it does for a broken 1-D histogram. Each corruption below
// used to load and then panic, or silently skew, the first estimate that
// derived a statistic from it.
func TestReadPoolQuarantinesMalformed2D(t *testing.T) {
	t.Parallel()
	cat, a := shopDB(rand.New(rand.NewSource(54)), 200)
	b := NewBuilder(cat)
	pool := NewPool(cat)
	pool.Add(b.BuildBase(a["o.price"]))
	s2d, err := b.Build2D(a["o.id"], a["o.price"], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pool.Add2D(s2d) {
		t.Fatal("valid 2-D SIT rejected")
	}
	var buf bytes.Buffer
	if err := pool.Encode(&buf); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		corrupt func(h *hist2DSnapshot)
	}{
		{"ragged cells row", func(h *hist2DSnapshot) { h.Cells[1] = h.Cells[1][:len(h.Cells[1])-1] }},
		{"x distinct cut to one entry", func(h *hist2DSnapshot) { h.XDistinct = h.XDistinct[:1] }},
		{"x bounds cut to two entries", func(h *hist2DSnapshot) { h.XBounds = h.XBounds[:2] }},
	}
	for _, c := range cases {
		var snap poolSnapshot
		if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		if len(snap.SITs2D) != 1 || len(snap.SITs2D[0].Hist.Cells) < 2 {
			t.Fatalf("want one 2-D SIT with at least 2 x stripes in the snapshot")
		}
		c.corrupt(&snap.SITs2D[0].Hist)
		raw, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadPool(cat, bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if loaded.Size2D() != 0 {
			t.Errorf("%s: Size2D = %d, want 0", c.name, loaded.Size2D())
		}
		h := loaded.HealthSnapshot()
		if h.Quarantined != 1 || h.Records[0].ID != s2d.ID() || h.Records[0].Reason == "" {
			t.Errorf("%s: quarantine records %+v, want one for %s with a reason", c.name, h.Records, s2d.ID())
		}
		if loaded.Size() != pool.Size() {
			t.Errorf("%s: %d 1-D SITs loaded, want %d", c.name, loaded.Size(), pool.Size())
		}
	}
}
