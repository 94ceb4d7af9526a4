package core

import (
	"testing"
)

// TestRunDeterminismDespiteTelemetry backs the nondet suppressions on the
// HistNanos accounting in factor.go: the wall-clock reads there are pure
// telemetry, so two independent runs over the same query, pool and model
// must produce bit-identical estimates — same Sel, Err, factor structure
// and chosen SITs — even though their HistNanos totals differ freely.
func TestRunDeterminismDespiteTelemetry(t *testing.T) {
	t.Parallel()
	f := newFixture(11, 60, 300)
	for _, model := range []ErrorModel{NInd{}, Diff{}} {
		est := NewEstimator(f.cat, f.pool(2), model)

		run := func() *decomp {
			return est.NewRun(f.query).decompose(f.query.All())
		}
		a, b := run(), run()

		if a.Sel != b.Sel || a.Err != b.Err {
			t.Fatalf("%s: runs diverge: Sel %v vs %v, Err %v vs %v",
				model.Name(), a.Sel, b.Sel, a.Err, b.Err)
		}
		if len(a.factors) != len(b.factors) {
			t.Fatalf("%s: factor counts diverge: %d vs %d",
				model.Name(), len(a.factors), len(b.factors))
		}
		for i := range a.factors {
			fa, fb := a.factors[i], b.factors[i]
			if fa.P != fb.P || fa.Q != fb.Q || fa.Sel != fb.Sel || fa.Err != fb.Err {
				t.Fatalf("%s: factor %d diverges: %+v vs %+v", model.Name(), i, fa, fb)
			}
			if len(fa.SITs) != len(fb.SITs) {
				t.Fatalf("%s: factor %d SIT counts diverge", model.Name(), i)
			}
			for j := range fa.SITs {
				if fa.SITs[j].ID() != fb.SITs[j].ID() {
					t.Fatalf("%s: factor %d SIT %d diverges: %s vs %s",
						model.Name(), i, j, fa.SITs[j].ID(), fb.SITs[j].ID())
				}
			}
		}
	}
}
