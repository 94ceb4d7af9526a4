package histogram

import (
	"math"
	"math/rand"
	"testing"
)

// corrPairs generates (x, y) pairs where y is correlated with x: y ≈ x/2
// plus noise, over x ∈ [0, domain).
func corrPairs(rng *rand.Rand, n int, domain int64) (xs, ys []int64) {
	xs = make([]int64, n)
	ys = make([]int64, n)
	for i := 0; i < n; i++ {
		xs[i] = int64(rng.Intn(int(domain)))
		ys[i] = xs[i]/2 + int64(rng.Intn(20))
	}
	return xs, ys
}

func TestBuild2DBasics(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	xs, ys := corrPairs(rng, 5000, 1000)
	h, err := Build2D(xs, ys, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.Rows != 5000 {
		t.Fatalf("rows = %v", h.Rows)
	}
	if h.NumCells() == 0 || h.NumCells() > 16*16 {
		t.Fatalf("cells = %d", h.NumCells())
	}
	if _, err := Build2D(xs, ys[:10], 16, 16); err == nil {
		t.Fatalf("ragged input accepted")
	}
	empty, err := Build2D(nil, nil, 8, 8)
	if err != nil || !empty.Empty() {
		t.Fatalf("empty build misbehaves: %v", err)
	}
}

func TestMarginalsMatch1D(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2))
	xs, ys := corrPairs(rng, 8000, 500)
	h, err := Build2D(xs, ys, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	mx, my := h.MarginalX(), h.MarginalY()
	if err := mx.Validate(); err != nil {
		t.Fatalf("marginal X invalid: %v", err)
	}
	if err := my.Validate(); err != nil {
		t.Fatalf("marginal Y invalid: %v", err)
	}
	if mx.Rows != h.Rows || my.Rows != h.Rows {
		t.Fatalf("marginal rows %v/%v, want %v", mx.Rows, my.Rows, h.Rows)
	}
	// Marginal range estimates should track a direct 1-D histogram.
	direct := Build(MaxDiff, xs, 20)
	for _, probe := range [][2]int64{{0, 100}, {200, 400}, {450, 499}} {
		a := mx.EstimateRangeCount(probe[0], probe[1])
		b := direct.EstimateRangeCount(probe[0], probe[1])
		if absF(a-b) > 0.1*float64(len(xs)) {
			t.Fatalf("marginal estimate [%d,%d]: %v vs direct %v", probe[0], probe[1], a, b)
		}
	}
}

func TestEstimateRangeCount2D(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	xs, ys := corrPairs(rng, 20000, 1000)
	h, err := Build2D(xs, ys, 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		xlo := int64(rng.Intn(900))
		xhi := xlo + int64(rng.Intn(200))
		ylo := int64(rng.Intn(450))
		yhi := ylo + int64(rng.Intn(150))
		var truth float64
		for i := range xs {
			if xs[i] >= xlo && xs[i] <= xhi && ys[i] >= ylo && ys[i] <= yhi {
				truth++
			}
		}
		got := h.EstimateRangeCount2D(xlo, xhi, ylo, yhi)
		if absF(got-truth) > 0.05*float64(len(xs))+100 {
			t.Fatalf("2D range [%d,%d]×[%d,%d]: est %v vs truth %v",
				xlo, xhi, ylo, yhi, got, truth)
		}
	}
	if got := h.EstimateRangeCount2D(10, 5, 0, 100); got != 0 {
		t.Fatalf("inverted range = %v", got)
	}
}

// TestEstimate2DBeatsIndependenceOnCorrelatedData: the defining benefit of
// a joint histogram — the 2-D estimate of a correlated conjunction must be
// far closer to truth than the independence product of 1-D estimates.
func TestEstimate2DBeatsIndependenceOnCorrelatedData(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(4))
	xs, ys := corrPairs(rng, 20000, 1000)
	h, _ := Build2D(xs, ys, 24, 24)
	hx := Build(MaxDiff, xs, 100)
	hy := Build(MaxDiff, ys, 100)

	// x high ∧ y high: strongly positively correlated.
	xlo, xhi := int64(800), int64(999)
	ylo, yhi := int64(400), int64(520)
	var truth float64
	for i := range xs {
		if xs[i] >= xlo && xs[i] <= xhi && ys[i] >= ylo && ys[i] <= yhi {
			truth++
		}
	}
	joint := h.EstimateRangeCount2D(xlo, xhi, ylo, yhi)
	indep := hx.EstimateRange(xlo, xhi) * hy.EstimateRange(ylo, yhi) * float64(len(xs))
	if absF(joint-truth) >= absF(indep-truth) {
		t.Fatalf("2D (%v) should beat independence (%v) against truth %v", joint, indep, truth)
	}
}

// TestJoinOnXExample3 reproduces §3.3 Example 3: join SIT2D(x, a) with a
// histogram on the other side's y, get the join selectivity and the derived
// distribution of a over the join — and verify the derived filter estimate
// against ground truth computed by brute force.
func TestJoinOnXExample3(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	// R(x, a): a correlated with x. S(y): y Zipf-ish over x's domain, so
	// the join skews the distribution of a.
	n := 10000
	xs := make([]int64, n)
	as := make([]int64, n)
	for i := 0; i < n; i++ {
		xs[i] = int64(rng.Intn(1000))
		as[i] = xs[i]/2 + int64(rng.Intn(20))
	}
	z := rand.NewZipf(rng, 1.4, 1, 999)
	m := 5000
	ss := make([]int64, m)
	for i := 0; i < m; i++ {
		ss[i] = 999 - int64(z.Uint64()) // high x values are popular in S
	}

	h2d, err := Build2D(xs, as, 24, 48)
	if err != nil {
		t.Fatal(err)
	}
	hs := Build(MaxDiff, ss, 200)

	sel, aHist := h2d.JoinOnX(hs)

	// Ground truth join cardinality and a-distribution.
	freqS := make(map[int64]float64)
	for _, v := range ss {
		freqS[v]++
	}
	var joinCard, truthHigh float64
	for i := range xs {
		f := freqS[xs[i]]
		joinCard += f
		if as[i] >= 400 {
			truthHigh += f
		}
	}
	wantSel := joinCard / float64(n*m)
	if rel := absF(sel-wantSel) / wantSel; rel > 0.15 {
		t.Fatalf("join selectivity %v vs truth %v (rel %v)", sel, wantSel, rel)
	}
	if err := aHist.Validate(); err != nil {
		t.Fatalf("derived histogram invalid: %v", err)
	}
	if rel := absF(aHist.Rows-joinCard) / joinCard; rel > 0.15 {
		t.Fatalf("derived rows %v vs join card %v", aHist.Rows, joinCard)
	}

	// The derived conditional estimate Sel(a ≥ 400 | join) must beat the
	// base (unjoined) distribution of a by a wide margin.
	derived := aHist.EstimateRange(400, 1<<20)
	base := Build(MaxDiff, as, 200).EstimateRange(400, 1<<20)
	truthCond := truthHigh / joinCard
	if absF(derived-truthCond) >= absF(base-truthCond) {
		t.Fatalf("derived conditional %v should beat base %v against truth %v",
			derived, base, truthCond)
	}
	if absF(derived-truthCond) > 0.1 {
		t.Fatalf("derived conditional %v too far from truth %v", derived, truthCond)
	}
}

func TestJoinOnXEmptyCases(t *testing.T) {
	t.Parallel()
	h, _ := Build2D([]int64{1, 2}, []int64{3, 4}, 4, 4)
	sel, yh := h.JoinOnX(&Histogram{})
	if sel != 0 || !yh.Empty() {
		t.Fatalf("join with empty other should be zero")
	}
	var nil2d *Hist2D
	sel, yh = nil2d.JoinOnX(Build(MaxDiff, []int64{1}, 4))
	if sel != 0 || !yh.Empty() {
		t.Fatalf("join on empty 2D should be zero")
	}
}

func TestHist2DTotalRowsNormalization(t *testing.T) {
	t.Parallel()
	h, _ := Build2D([]int64{1, 1, 2}, []int64{5, 6, 7}, 4, 4)
	h.TotalRows = 6 // three more rows with NULL x
	other := Build(MaxDiff, []int64{1, 2, 3}, 4)
	selWith, _ := h.JoinOnX(other)
	h.TotalRows = 0
	selWithout, _ := h.JoinOnX(other)
	if absF(selWith*2-selWithout) > 1e-12 {
		t.Fatalf("TotalRows should halve the selectivity: %v vs %v", selWith, selWithout)
	}
}

// TestHist2DValidateRejectsMalformedGrids: every corruption that would make
// an estimate index past a slice, or read a non-finite count, is reported as
// an error rather than a panic.
func TestHist2DValidateRejectsMalformedGrids(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		corrupt func(h *Hist2D)
	}{
		{"ragged cells row", func(h *Hist2D) { h.Cells[1] = h.Cells[1][:len(h.Cells[1])-1] }},
		{"x distinct cut to one entry", func(h *Hist2D) { h.XDistinct = h.XDistinct[:1] }},
		{"x bounds cut to two entries", func(h *Hist2D) { h.XBounds = h.XBounds[:2] }},
		{"NaN cell", func(h *Hist2D) { h.Cells[0][0] = math.NaN() }},
		{"infinite distinct count", func(h *Hist2D) { h.XDistinct[0] = math.Inf(1) }},
		{"negative total rows", func(h *Hist2D) { h.TotalRows = -1 }},
	}
	for _, c := range cases {
		xs, ys := corrPairs(rand.New(rand.NewSource(3)), 2000, 500)
		h, err := Build2D(xs, ys, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("built grid invalid: %v", err)
		}
		if len(h.Cells) < 2 {
			t.Fatalf("want at least 2 x stripes, got %d", len(h.Cells))
		}
		c.corrupt(h)
		if err := h.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
