package histogram

import (
	"fmt"
	"math"
	"sort"
)

// Hist2D approximates the joint distribution of two integer attributes
// (x, y) with a grid of cells. It implements the two-dimensional statistics
// of the paper's §3.3 "Filter and Join Predicates": Example 3 builds
// H1 = SIT(R.x, R.a|Q), joins it with a histogram on S.y, and obtains both
// the join selectivity and H3 = SIT(R.a | R.x=S.y, Q) for the remaining
// filter — JoinOnX below is exactly that operation.
//
// Grid boundaries are chosen per dimension by the maxDiff criterion on the
// marginals; cells store counts plus the per-stripe distinct counts of x
// needed for join estimation.
type Hist2D struct {
	// XBounds/YBounds are stripe boundaries: stripe i covers
	// [Bounds[i], Bounds[i+1]-1]; len(Cells) = len(XBounds)-1.
	XBounds []int64
	YBounds []int64
	// Cells[xi][yi] is the row count of the cell.
	Cells [][]float64
	// XDistinct[xi] is the number of distinct x values in stripe xi.
	XDistinct []float64
	// Rows is the total count; TotalRows (if set) additionally counts rows
	// where x or y is NULL, for selectivity normalization.
	Rows      float64
	TotalRows float64
}

// Build2D constructs a grid histogram over the paired values (xs[i], ys[i])
// with at most xDim × yDim cells. The grid may be asymmetric: join-column
// stripes (x) can stay coarse while the dependent attribute (y) keeps
// enough resolution for filter estimation. The slices must have equal
// length; rows where either side is NULL are expected to be filtered out by
// the caller (set TotalRows to account for them).
func Build2D(xs, ys []int64, xDim, yDim int) (*Hist2D, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("histogram: Build2D needs parallel slices, got %d vs %d", len(xs), len(ys))
	}
	if xDim < 1 {
		xDim = 1
	}
	if yDim < 1 {
		yDim = 1
	}
	h := &Hist2D{Rows: float64(len(xs))}
	if len(xs) == 0 {
		return h, nil
	}
	h.XBounds = stripeBounds(xs, xDim)
	h.YBounds = stripeBounds(ys, yDim)

	nx, ny := len(h.XBounds)-1, len(h.YBounds)-1
	h.Cells = make([][]float64, nx)
	for i := range h.Cells {
		h.Cells[i] = make([]float64, ny)
	}
	h.XDistinct = make([]float64, nx)
	distinct := make([]map[int64]bool, nx)
	for i := range distinct {
		distinct[i] = make(map[int64]bool)
	}
	for i := range xs {
		xi := stripeOf(h.XBounds, xs[i])
		yi := stripeOf(h.YBounds, ys[i])
		h.Cells[xi][yi]++
		distinct[xi][xs[i]] = true
	}
	for i, d := range distinct {
		h.XDistinct[i] = float64(len(d))
	}
	return h, nil
}

// stripeBounds derives stripe boundaries from the 1-D maxDiff histogram of
// the values: bucket edges become stripe edges.
func stripeBounds(values []int64, maxBuckets int) []int64 {
	m := buildMaxDiff(valueFreqs(values), maxBuckets)
	bounds := make([]int64, 0, len(m.Buckets)+1)
	for _, b := range m.Buckets {
		bounds = append(bounds, b.Lo)
	}
	bounds = append(bounds, m.Buckets[len(m.Buckets)-1].Hi+1)
	return bounds
}

// stripeOf locates the stripe containing v (values outside the range clamp
// to the first/last stripe; Build2D only passes covered values).
func stripeOf(bounds []int64, v int64) int {
	i := sort.Search(len(bounds), func(i int) bool { return bounds[i] > v }) - 1
	if i < 0 {
		return 0
	}
	if i >= len(bounds)-1 {
		return len(bounds) - 2
	}
	return i
}

// NumCells returns the grid size.
func (h *Hist2D) NumCells() int {
	if len(h.Cells) == 0 {
		return 0
	}
	return len(h.Cells) * len(h.Cells[0])
}

// Empty reports whether the histogram describes no rows.
func (h *Hist2D) Empty() bool { return h == nil || h.Rows == 0 || len(h.Cells) == 0 }

func (h *Hist2D) denom() float64 {
	if h.TotalRows > 0 {
		return h.TotalRows
	}
	return h.Rows
}

// MarginalY returns the 1-D histogram of y (bucket per y stripe).
func (h *Hist2D) MarginalY() *Histogram {
	out := &Histogram{TotalRows: h.TotalRows}
	if h.Empty() {
		return out
	}
	ny := len(h.YBounds) - 1
	for yi := 0; yi < ny; yi++ {
		var count float64
		for xi := range h.Cells {
			count += h.Cells[xi][yi]
		}
		if count == 0 {
			continue
		}
		b := Bucket{Lo: h.YBounds[yi], Hi: h.YBounds[yi+1] - 1, Count: count}
		b.Distinct = estimateStripeDistinct(count, b.span())
		out.Buckets = append(out.Buckets, b)
		out.Rows += count
	}
	return out
}

// MarginalX returns the 1-D histogram of x (bucket per x stripe), with the
// exact per-stripe distinct counts recorded at build time.
func (h *Hist2D) MarginalX() *Histogram {
	out := &Histogram{TotalRows: h.TotalRows}
	if h.Empty() {
		return out
	}
	for xi := range h.Cells {
		var count float64
		for _, c := range h.Cells[xi] {
			count += c
		}
		if count == 0 {
			continue
		}
		out.Buckets = append(out.Buckets, Bucket{
			Lo: h.XBounds[xi], Hi: h.XBounds[xi+1] - 1,
			Count: count, Distinct: h.XDistinct[xi],
		})
		out.Rows += count
	}
	return out
}

// estimateStripeDistinct caps a crude distinct guess by the stripe span and
// the row count (used only where exact distincts were not recorded).
func estimateStripeDistinct(count, span float64) float64 {
	d := count
	if d > span {
		d = span
	}
	if d < 1 {
		d = 1
	}
	return d
}

// EstimateRangeCount2D estimates the number of rows with x ∈ [xlo,xhi] and
// y ∈ [ylo,yhi], assuming uniformity within cells.
func (h *Hist2D) EstimateRangeCount2D(xlo, xhi, ylo, yhi int64) float64 {
	if h.Empty() || xhi < xlo || yhi < ylo {
		return 0
	}
	var count float64
	for xi := range h.Cells {
		sxLo, sxHi := h.XBounds[xi], h.XBounds[xi+1]-1
		fx := overlapPoints(sxLo, sxHi, xlo, xhi) / (float64(sxHi) - float64(sxLo) + 1)
		if fx == 0 {
			continue
		}
		for yi := range h.Cells[xi] {
			syLo, syHi := h.YBounds[yi], h.YBounds[yi+1]-1
			fy := overlapPoints(syLo, syHi, ylo, yhi) / (float64(syHi) - float64(syLo) + 1)
			if fy == 0 {
				continue
			}
			count += h.Cells[xi][yi] * fx * fy
		}
	}
	return count
}

// JoinOnX estimates the equi-join of this distribution's x attribute with
// the 1-D distribution other (§3.3 Example 3). It returns the join
// selectivity relative to the two relations' cross product, and the
// histogram of y over the join result — the derived SIT(y | x=·, Q).
func (h *Hist2D) JoinOnX(other *Histogram) (sel float64, yHist *Histogram) {
	yHist = &Histogram{}
	if h.Empty() || other.Empty() {
		return 0, yHist
	}
	nx := len(h.XBounds) - 1
	ny := len(h.YBounds) - 1
	scaled := make([]float64, ny)
	var joinCard float64

	for xi := 0; xi < nx; xi++ {
		sxLo, sxHi := h.XBounds[xi], h.XBounds[xi+1]-1
		var stripeCount float64
		for yi := 0; yi < ny; yi++ {
			stripeCount += h.Cells[xi][yi]
		}
		if stripeCount == 0 || h.XDistinct[xi] == 0 {
			continue
		}
		// Join the stripe (as one bucket) against the other histogram.
		stripe := &Histogram{
			Rows: stripeCount,
			Buckets: []Bucket{{
				Lo: sxLo, Hi: sxHi, Count: stripeCount, Distinct: h.XDistinct[xi],
			}},
		}
		res := Join(stripe, other)
		if res.Cardinality == 0 {
			continue
		}
		joinCard += res.Cardinality
		// Every row of the stripe is multiplied by its expected match
		// count; the stripe's y distribution scales uniformly.
		scale := res.Cardinality / stripeCount
		for yi := 0; yi < ny; yi++ {
			scaled[yi] += h.Cells[xi][yi] * scale
		}
	}

	for yi := 0; yi < ny; yi++ {
		if scaled[yi] == 0 {
			continue
		}
		b := Bucket{Lo: h.YBounds[yi], Hi: h.YBounds[yi+1] - 1, Count: scaled[yi]}
		b.Distinct = estimateStripeDistinct(scaled[yi], b.span())
		yHist.Buckets = append(yHist.Buckets, b)
		yHist.Rows += scaled[yi]
	}
	sel = joinCard / (h.denom() * other.denom())
	return sel, yHist
}

// Validate checks the grid's structural invariants, which every estimate
// over it indexes by: finite non-negative row totals; one x bound more than
// there are x stripes, and one distinct count per stripe; one y bound more
// than there are cells in each stripe; finite non-negative cells and
// distinct counts, no stripe with more distinct x values than rows; cells
// that sum to Rows; and strictly increasing bounds. A nil or cell-less grid
// is valid (it estimates nothing).
func (h *Hist2D) Validate() error {
	if h == nil {
		return nil
	}
	if math.IsNaN(h.Rows) || math.IsInf(h.Rows, 0) || h.Rows < 0 {
		return fmt.Errorf("rows %v not finite and non-negative", h.Rows)
	}
	if math.IsNaN(h.TotalRows) || math.IsInf(h.TotalRows, 0) || h.TotalRows < 0 {
		return fmt.Errorf("total rows %v not finite and non-negative", h.TotalRows)
	}
	if len(h.Cells) == 0 {
		return nil
	}
	if len(h.XBounds) != len(h.Cells)+1 {
		return fmt.Errorf("%d x bounds for %d stripes", len(h.XBounds), len(h.Cells))
	}
	if len(h.XDistinct) != len(h.Cells) {
		return fmt.Errorf("%d x distinct counts for %d stripes", len(h.XDistinct), len(h.Cells))
	}
	var total float64
	for xi := range h.Cells {
		if len(h.YBounds) != len(h.Cells[xi])+1 {
			return fmt.Errorf("stripe %d has %d cells for %d y bounds", xi, len(h.Cells[xi]), len(h.YBounds))
		}
		var stripe float64
		for _, c := range h.Cells[xi] {
			if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
				return fmt.Errorf("stripe %d cell count %v not finite and non-negative", xi, c)
			}
			stripe += c
		}
		d := h.XDistinct[xi]
		if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
			return fmt.Errorf("stripe %d distinct %v not finite and non-negative", xi, d)
		}
		if d > stripe && stripe > 0 {
			return fmt.Errorf("stripe %d distinct %v exceeds count %v", xi, d, stripe)
		}
		total += stripe
	}
	if math.Abs(total-h.Rows) > 1e-6*math.Max(1, h.Rows) {
		return fmt.Errorf("cells sum to %v, Rows = %v", total, h.Rows)
	}
	for i := 1; i < len(h.XBounds); i++ {
		if h.XBounds[i] <= h.XBounds[i-1] {
			return fmt.Errorf("x bounds not increasing")
		}
	}
	for i := 1; i < len(h.YBounds); i++ {
		if h.YBounds[i] <= h.YBounds[i-1] {
			return fmt.Errorf("y bounds not increasing")
		}
	}
	return nil
}
