package elt

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// SampleParams is the precomputable half of SampleLoss; applying the
// plan as the stage-2 kernels do (draw when a > 0) must reproduce
// SampleLoss draw-for-draw from the same stream state, across every
// degenerate branch (no exposure, no sigma, mean at the support bound,
// variance clamp, a NaN or infinite moment) and the beta-draw path.
func TestSampleParamsMatchesSampleLoss(t *testing.T) {
	records := []Record{
		{EventID: 1, MeanLoss: 0, ExposedValue: 100},               // non-positive mean → 0
		{EventID: 2, MeanLoss: 50, ExposedValue: 0},                // no exposure → 0
		{EventID: 3, MeanLoss: 50, ExposedValue: 100},              // sigma 0 → mean
		{EventID: 4, MeanLoss: 120, SigmaI: 5, ExposedValue: 100},  // mu ≥ 1 → exposed value
		{EventID: 5, MeanLoss: 50, SigmaI: 500, ExposedValue: 100}, // variance clamp, then draw
		{EventID: 6, MeanLoss: 30, SigmaI: 10, SigmaC: 5, ExposedValue: 200},
		{EventID: 7, MeanLoss: 1e-9, SigmaI: 1e-10, ExposedValue: 1},
		// Non-finite moments: no distribution, no draw.
		{EventID: 8, MeanLoss: 50, SigmaI: math.NaN(), ExposedValue: 100},
		{EventID: 9, MeanLoss: math.NaN(), SigmaI: 5, ExposedValue: 100},
		{EventID: 10, MeanLoss: 50, SigmaI: 5, ExposedValue: math.Inf(1)},
		{EventID: 11, MeanLoss: 50, SigmaC: math.Inf(1), ExposedValue: 100},
		{EventID: 12, MeanLoss: math.Inf(1), SigmaI: 5, ExposedValue: 100},
		{EventID: 13, MeanLoss: 50, SigmaI: 5, ExposedValue: math.NaN()},
	}
	for _, r := range records {
		for seed := uint64(0); seed < 8; seed++ {
			st1 := rng.NewStream(99, seed)
			st2 := rng.NewStream(99, seed)
			want := SampleLoss(st1, r)
			c, a, b, scale := SampleParams(r)
			got := c
			if a > 0 {
				got = scale * st2.Beta(a, b)
			}
			if got != want {
				t.Fatalf("record %d seed %d: plan %g, SampleLoss %g", r.EventID, seed, got, want)
			}
			// Both paths must leave the stream in the same state — the
			// draw-order invariant the engines' bit-determinism rests on.
			if st1.Uint64() != st2.Uint64() {
				t.Fatalf("record %d seed %d: stream states diverged", r.EventID, seed)
			}
		}
	}
}
