package sit

import (
	"math"
	"sort"

	"condsel/internal/histogram"
)

// Epoch support for the statistics lifecycle manager (internal/lifecycle):
// a rebuilt SIT is never patched into a live pool — readers may hold the
// pool mid-estimate — but published by deriving a complete replacement pool
// ("epoch") that shares every untouched statistic and carries a fresh
// generation. In-flight runs finish against the old epoch; new runs pick up
// the new one; generation-keyed caches (internal/selcache) can never mix the
// two because no two pools ever share a generation stamp, and the old
// epoch's entries, which no new run asks for, age out of their LRU. A
// rebuild the pool already serves (Serves) is not published at all.

// Lookup returns the pool's SIT with the given canonical ID, quarantined or
// not, or nil when the ID is unknown. Lifecycle rebuilds use it to recover
// the attribute/expression spec of a statistic that has been pulled from
// service.
func (p *Pool) Lookup(id string) *SIT { return p.byID[id] }

// Serves reports whether the pool serves s's exact content: it holds a
// statistic with s's ID, that statistic is not quarantined, and the two
// have the same content (SameContent). A rebuild the pool already serves
// would change no answer, so the lifecycle manager publishes only rebuilds
// for which Serves is false.
func (p *Pool) Serves(s *SIT) bool {
	cur := p.byID[s.ID()]
	return cur != nil && !p.isQuarantined(cur.ID()) && cur.SameContent(s)
}

// SameContent reports whether s and t are the same statistic bit for bit:
// equal IDs, Diff, Rows, TotalRows and buckets, every float compared by its
// bits. A statistic rebuilt from unchanged data reproduces its content
// exactly, since the builder is deterministic.
func (s *SIT) SameContent(t *SIT) bool {
	return s.ID() == t.ID() && sameBits(s.Diff, t.Diff) && sameHist(s.Hist, t.Hist)
}

// sameHist compares two histograms bit for bit (nil equals only nil).
func sameHist(a, b *histogram.Histogram) bool {
	if a == nil || b == nil {
		return a == b
	}
	if !sameBits(a.Rows, b.Rows) || !sameBits(a.TotalRows, b.TotalRows) || len(a.Buckets) != len(b.Buckets) {
		return false
	}
	for i, x := range a.Buckets {
		y := b.Buckets[i]
		if x.Lo != y.Lo || x.Hi != y.Hi || !sameBits(x.Count, y.Count) || !sameBits(x.Distinct, y.Distinct) {
			return false
		}
	}
	return true
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// Rebuilt returns a new pool — a fresh epoch — with the same contents as p
// except that the statistic with s.ID() is replaced by s. Quarantine state
// and deep-validation marks carry over for every other statistic; the
// replaced ID starts clean (not quarantined, not yet deep-checked), so a
// rebuild heals a quarantined statistic by construction. The receiver is not
// modified and stays fully usable: the two pools share SIT values but no
// mutable state, and the clone's generation (like every pool's) is globally
// unique, so generation-keyed cache entries never alias across epochs. The
// clone's match-call counter starts at zero.
//
// Rebuilt must not race with mutations of p (Add, Add2D); concurrent readers
// are fine, as for every other pool read.
func (p *Pool) Rebuilt(s *SIT) *Pool {
	id := s.ID()
	out := NewPool(p.Cat)

	// Carry every 1-D statistic except the one being replaced, in canonical
	// ID order (Add appends to byAttr slices; deterministic order keeps the
	// clone's pre-index layout reproducible).
	for _, old := range p.allSITs() {
		if old.ID() == id {
			continue
		}
		out.byID[old.ID()] = old
		out.byAttr[old.Attr] = append(out.byAttr[old.Attr], old)
	}
	// Quarantine records and deep-validation marks transfer for every other
	// ID, so statistics quarantined by a lazy deep check stay out of service
	// in the new epoch and already-checked histograms are not re-validated.
	// Both loops are pure map-to-map copies (order-free); the replaced ID is
	// scrubbed afterwards so the healed statistic starts clean. This happens
	// before the rebuilt statistic registers, so a quarantine issued by Add
	// (structurally invalid rebuild) survives.
	p.qmu.Lock()
	for qid, rec := range p.quar {
		out.quar[qid] = rec
	}
	for cid, done := range p.checked {
		out.checked[cid] = done
	}
	p.qmu.Unlock()
	delete(out.quar, id)
	delete(out.checked, id)

	// Install the rebuilt statistic through the regular registration path so
	// a structurally invalid rebuild is quarantined, not served.
	out.Add(s)

	// Two-dimensional statistics are carried as-is (the lifecycle manager
	// rebuilds 1-D SITs; 2-D support would extend this symmetrically).
	for _, s2 := range p.SITs2D() {
		out.Add2D(s2)
	}

	out.gen.Store(poolGen.Add(1))
	return out
}

// allSITs returns every 1-D SIT — quarantined included — in canonical ID
// order. Internal: epoch clones must carry quarantined statistics (their
// specs are what rebuilds are made from) that the public SITs() hides.
func (p *Pool) allSITs() []*SIT {
	out := make([]*SIT, 0, len(p.byID))
	for _, s := range p.byID {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}
