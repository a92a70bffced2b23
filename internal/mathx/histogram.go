package mathx

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Values below
// Lo are counted in an underflow bucket and values >= Hi in an overflow
// bucket so no observation is silently dropped.
type Histogram struct {
	Lo, Hi    float64
	Counts    []uint64
	Underflow uint64
	Overflow  uint64
	Total     uint64
}

// NewHistogram returns a histogram with bins equal-width buckets over
// [lo, hi). It panics if bins <= 0 or hi <= lo, which are programming
// errors rather than data conditions.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic(fmt.Sprintf("mathx: invalid histogram [%g,%g) bins=%d", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]uint64, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.Total++
	switch {
	case x < h.Lo:
		h.Underflow++
	case x >= h.Hi:
		h.Overflow++
	default:
		i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
		if i >= len(h.Counts) { // guard rounding at the right edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Merge adds the counts of other into h. Both histograms must have
// identical bounds and bin counts; Merge reports whether they did.
// This is the reduction step when per-worker histograms are combined.
func (h *Histogram) Merge(other *Histogram) bool {
	if other.Lo != h.Lo || other.Hi != h.Hi || len(other.Counts) != len(h.Counts) {
		return false
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
	h.Underflow += other.Underflow
	h.Overflow += other.Overflow
	h.Total += other.Total
	return true
}

// String renders a compact ASCII bar chart, used by the CLI tools.
func (h *Histogram) String() string {
	var b strings.Builder
	var maxC uint64 = 1
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	for i, c := range h.Counts {
		bar := int(math.Round(40 * float64(c) / float64(maxC)))
		fmt.Fprintf(&b, "%12.4g |%s %d\n", h.BinCenter(i), strings.Repeat("#", bar), c)
	}
	if h.Underflow > 0 {
		fmt.Fprintf(&b, "underflow: %d\n", h.Underflow)
	}
	if h.Overflow > 0 {
		fmt.Fprintf(&b, "overflow: %d\n", h.Overflow)
	}
	return b.String()
}
