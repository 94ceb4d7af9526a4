package bench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestMeasureOverheadCallOrder: one untimed warm-up call of each variant per
// item comes before any timed call, then OverheadPairs pairs each run a
// bare-first and a managed-first round over every item.
func TestMeasureOverheadCallOrder(t *testing.T) {
	t.Parallel()
	const n = 3
	var calls []string
	variant := func(name string) func(int) float64 {
		return func(i int) float64 {
			calls = append(calls, fmt.Sprintf("%s%d", name, i))
			return float64(i)
		}
	}
	o, err := measureOverhead(n, variant("bare"), variant("managed"))
	if err != nil {
		t.Fatalf("measureOverhead: %v", err)
	}

	var want []string
	for i := 0; i < n; i++ {
		want = append(want, fmt.Sprintf("bare%d", i), fmt.Sprintf("managed%d", i))
	}
	for p := 0; p < OverheadPairs; p++ {
		for i := 0; i < n; i++ {
			want = append(want, fmt.Sprintf("bare%d", i), fmt.Sprintf("managed%d", i))
		}
		for i := 0; i < n; i++ {
			want = append(want, fmt.Sprintf("managed%d", i), fmt.Sprintf("bare%d", i))
		}
	}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("call sequence:\n got %v\nwant %v", calls, want)
	}
	if o.Pairs != OverheadPairs {
		t.Fatalf("Pairs = %d, want %d", o.Pairs, OverheadPairs)
	}
	if !(o.PairP25Pct <= o.PairP50Pct && o.PairP50Pct <= o.PairP75Pct) {
		t.Fatalf("pair percentiles out of order: %+v", o)
	}
	// The gated benches ran 31 alternating rounds before they shared this
	// primitive; none of them may time fewer.
	if 2*OverheadPairs < 31 {
		t.Fatalf("OverheadPairs = %d times fewer than 31 rounds", OverheadPairs)
	}
}

// TestMeasureOverheadRejectsDifferingAnswer: the first item whose answers
// differ fails the comparison during warm-up, before any timed call.
func TestMeasureOverheadRejectsDifferingAnswer(t *testing.T) {
	t.Parallel()
	calls := 0
	bare := func(int) float64 { calls++; return 0.5 }
	managed := func(i int) float64 {
		calls++
		if i == 1 {
			return 0.25
		}
		return 0.5
	}
	_, err := measureOverhead(3, bare, managed)
	if err == nil || !strings.Contains(err.Error(), "item 1") {
		t.Fatalf("differing answer not reported for item 1: %v", err)
	}
	if calls != 4 {
		t.Fatalf("%d variant calls, want 4: warm-up must stop at the differing item", calls)
	}
}

// TestPercentile: the nearest-rank-below percentile the spread fields use,
// on a known unsorted slice that it must leave unsorted.
func TestPercentile(t *testing.T) {
	t.Parallel()
	xs := []float64{40, 10, 50, 30, 20}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {0.99, 40}, {1, 50},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 40 || xs[4] != 20 {
		t.Fatalf("percentile reordered its input: %v", xs)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("percentile of no samples = %v, want 0", got)
	}
}
