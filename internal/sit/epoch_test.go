package sit

import (
	"math"
	"math/rand"
	"testing"

	"condsel/internal/engine"
	"condsel/internal/histogram"
)

// epochPool builds a pool with a base histogram and two SITs on distinct
// attributes, returning the pool and the SIT chosen for replacement.
func epochPool(t *testing.T) (*engine.Catalog, map[string]engine.AttrID, *Pool, *SIT) {
	t.Helper()
	cat, a := shopDB(rand.New(rand.NewSource(11)), 40)
	join := engine.Join(a["l.oid"], a["o.id"])
	p := NewPool(cat)
	target := NewSIT(cat, a["o.price"], []engine.Pred{join}, validHist(), 0.4)
	for _, s := range []*SIT{
		NewSIT(cat, a["o.price"], nil, validHist(), 0),
		NewSIT(cat, a["l.qty"], nil, validHist(), 0),
		target,
	} {
		if !p.Add(s) {
			t.Fatalf("Add rejected %q", s.ID())
		}
	}
	return cat, a, p, target
}

// TestRebuiltReplacesAndShares: the clone carries the replacement under the
// same ID, shares every untouched SIT by pointer, has a fresh generation, and
// the receiver is untouched.
func TestRebuiltReplacesAndShares(t *testing.T) {
	t.Parallel()
	cat, a, p, target := epochPool(t)
	genBefore := p.Generation()

	fresh := NewSIT(cat, target.Attr, target.Expr, validHist(), 0.4)
	if fresh.ID() != target.ID() {
		t.Fatalf("rebuild changed the canonical ID: %q vs %q", fresh.ID(), target.ID())
	}
	clone := p.Rebuilt(fresh)

	if clone.Lookup(target.ID()) != fresh {
		t.Fatal("clone does not serve the rebuilt SIT")
	}
	if p.Lookup(target.ID()) != target {
		t.Fatal("Rebuilt mutated the receiver's SIT")
	}
	if p.Generation() != genBefore {
		t.Fatal("Rebuilt bumped the receiver's generation")
	}
	if clone.Generation() == p.Generation() {
		t.Fatal("epochs share a generation stamp")
	}
	if clone.Size() != p.Size() {
		t.Fatalf("clone size %d != receiver size %d", clone.Size(), p.Size())
	}
	// Untouched statistics are the same objects, not copies.
	for _, s := range p.SITs() {
		if s.ID() == target.ID() {
			continue
		}
		if clone.Lookup(s.ID()) != s {
			t.Fatalf("clone copied untouched SIT %q instead of sharing it", s.ID())
		}
	}
	_ = a
}

// TestRebuiltHealsQuarantine: replacing a quarantined statistic clears its
// quarantine record in the clone — and only its record.
func TestRebuiltHealsQuarantine(t *testing.T) {
	t.Parallel()
	cat, a, p, target := epochPool(t)
	other := p.Base(a["l.qty"])
	if !p.Quarantine(target.ID(), "drifted") || !p.Quarantine(other.ID(), "operator pull") {
		t.Fatal("Quarantine failed")
	}

	clone := p.Rebuilt(NewSIT(cat, target.Attr, target.Expr, validHist(), 0.4))
	h := clone.HealthSnapshot()
	if h.Quarantined != 1 {
		t.Fatalf("clone has %d quarantined, want 1 (the un-rebuilt one)", h.Quarantined)
	}
	if h.Records[0].ID != other.ID() {
		t.Fatalf("clone quarantines %q, want %q", h.Records[0].ID, other.ID())
	}
	served := false
	for _, s := range clone.SITs() {
		served = served || s.ID() == target.ID()
	}
	if !served {
		t.Fatal("healed statistic is not back in service")
	}
	// The receiver still quarantines both.
	if got := p.HealthSnapshot().Quarantined; got != 2 {
		t.Fatalf("receiver quarantine count changed to %d", got)
	}
}

// TestRebuiltQuarantinesInvalidReplacement: a structurally broken rebuild
// goes through the regular registration path and lands in quarantine instead
// of service.
func TestRebuiltQuarantinesInvalidReplacement(t *testing.T) {
	t.Parallel()
	cat, _, p, target := epochPool(t)
	clone := p.Rebuilt(NewSIT(cat, target.Attr, target.Expr, rottenHist(), 0.4))
	// The rotten histogram passes the cheap Add check; first use quarantines.
	if s := clone.Base(target.Attr); s != nil && s.ID() == target.ID() {
		t.Fatal("clone served the invalid rebuild")
	}
	for _, s := range clone.SITs() {
		if s.ID() == target.ID() {
			clone.OnAttr(target.Attr) // force lazy validation
		}
	}
	h := clone.HealthSnapshot()
	found := false
	for _, rec := range h.Records {
		found = found || rec.ID == target.ID()
	}
	if !found {
		t.Fatalf("invalid rebuild not quarantined: %+v", h)
	}
}

// TestRebuiltCarriesQuarantinedSpecs: quarantined statistics stay resident
// (Lookup finds them) across epochs so later rebuilds can recover their
// specs, even though no read surface serves them.
func TestRebuiltCarriesQuarantinedSpecs(t *testing.T) {
	t.Parallel()
	cat, a, p, target := epochPool(t)
	other := p.Base(a["l.qty"])
	p.Quarantine(other.ID(), "rotted")
	clone := p.Rebuilt(NewSIT(cat, target.Attr, target.Expr, validHist(), 0.4))
	if clone.Lookup(other.ID()) != other {
		t.Fatal("quarantined SIT's spec lost in the new epoch")
	}
	for _, s := range clone.SITs() {
		if s.ID() == other.ID() {
			t.Fatal("quarantined SIT served by the new epoch")
		}
	}
}

// TestSameContentBitExact: SameContent compares ID, Diff, Rows, TotalRows
// and every bucket by their bits, and Serves holds only for the pool's
// unquarantined statistic of that content.
func TestSameContentBitExact(t *testing.T) {
	t.Parallel()
	cat, a, p, target := epochPool(t)
	same := NewSIT(cat, target.Attr, target.Expr, validHist(), target.Diff)
	if !same.SameContent(target) || !p.Serves(same) {
		t.Fatal("an identical rebuild is not recognized")
	}
	differ := map[string]*SIT{
		"ID":        NewSIT(cat, a["l.qty"], target.Expr, validHist(), target.Diff),
		"Diff":      NewSIT(cat, target.Attr, target.Expr, validHist(), math.Nextafter(target.Diff, 1)),
		"Diff sign": NewSIT(cat, a["o.price"], nil, validHist(), math.Copysign(0, -1)),
		"no hist":   NewSIT(cat, target.Attr, target.Expr, nil, target.Diff),
	}
	for name, mutate := range map[string]func(*histogram.Histogram){
		"Rows":      func(h *histogram.Histogram) { h.Rows = math.Nextafter(h.Rows, 0) },
		"TotalRows": func(h *histogram.Histogram) { h.TotalRows = h.Rows },
		"Lo":        func(h *histogram.Histogram) { h.Buckets[0].Lo++ },
		"Hi":        func(h *histogram.Histogram) { h.Buckets[0].Hi-- },
		"Count":     func(h *histogram.Histogram) { h.Buckets[0].Count = math.Nextafter(h.Buckets[0].Count, 0) },
		"Distinct":  func(h *histogram.Histogram) { h.Buckets[0].Distinct-- },
		"buckets": func(h *histogram.Histogram) {
			h.Buckets = append(h.Buckets, histogram.Bucket{Lo: 10, Hi: 10, Count: 0, Distinct: 0})
		},
	} {
		h := validHist()
		mutate(h)
		differ[name] = NewSIT(cat, target.Attr, target.Expr, h, target.Diff)
	}
	for name, s := range differ {
		base := target
		if name == "Diff sign" {
			base = p.Lookup(s.ID())
		}
		if s.SameContent(base) || base.SameContent(s) || p.Serves(s) {
			t.Fatalf("%s: a different statistic compares as the same content", name)
		}
	}
	if !p.Quarantine(target.ID(), "test") || p.Serves(same) {
		t.Fatal("a quarantined statistic is still served")
	}
}
