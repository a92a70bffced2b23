package rng

import "testing"

// FuzzScaledBetaAbove holds ScaledBetaAbove to its contract on arbitrary
// shapes, scales and floors, NaN and the infinities included: over a
// few consecutive draws of one stream it must leave the stream where
// Beta leaves it, answer scale·Beta(a, b) bit for bit, and decline only
// values at or below floor. The seed corpus is the books' shapes with
// floors around their mean, plus the edge cases in testdata.
func FuzzScaledBetaAbove(f *testing.F) {
	for i, ab := range skipShapes {
		a, b := ab[0], ab[1]
		mean := 1e6 * a / (a + b)
		f.Add(uint64(i), a, b, 1e6, mean)
		f.Add(uint64(i), a, b, 1e6, mean/10)
	}
	f.Fuzz(func(t *testing.T, seed uint64, a, b, scale, floor float64) {
		ref, st := New(seed), New(seed)
		for k := 0; k < 4; k++ {
			if o := checkScaledBetaAbove(ref, st, a, b, scale, floor); o.err != nil {
				t.Fatalf("Beta(%v, %v) scale %v floor %v draw %d: %v", a, b, scale, floor, k, o.err)
			}
		}
	})
}
