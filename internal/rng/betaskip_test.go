package rng

import (
	"fmt"
	"math"
	"testing"
)

// skipShapes are the beta plans the ScaledBetaAbove checks run: the
// books' shapes, then the edges — a ≪ 1 (the boost underflows to 0), a
// just below 1, a ≥ 1 (no boost), b < 1 (a boosted denominator) and
// both below 1.
var skipShapes = append([][2]float64{
	{1e-4, 5}, {0.004, 2}, {math.Nextafter(1, 0), 3}, {1, 4}, {2.5, 0.4}, {0.3, 0.5},
}, bookShapes...)

// betaOutcome is one ScaledBetaAbove call checked against
// scale·Beta(a, b) drawn from an identical stream.
type betaOutcome struct {
	declined bool
	err      error
}

// checkScaledBetaAbove draws once with Beta from ref and once with
// ScaledBetaAbove from st, which must start in the same state, and
// checks the entry point's contract: the streams end in the same state;
// an answer is scale·Beta(a, b) bit for bit; a decline only ever
// covers a value at or below floor.
func checkScaledBetaAbove(ref, st *Stream, a, b, scale, floor float64) betaOutcome {
	want := scale * ref.Beta(a, b)
	got, above := st.ScaledBetaAbove(a, b, scale, floor)
	if *st != *ref {
		return betaOutcome{err: fmt.Errorf("stream state differs from Beta's (answered %v)", above)}
	}
	if !above {
		if !(want <= floor) {
			return betaOutcome{err: fmt.Errorf("declined a value %v above floor %v", want, floor)}
		}
		return betaOutcome{declined: true}
	}
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		return betaOutcome{err: fmt.Errorf("answered %v (%#x), scale·Beta is %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))}
	}
	return betaOutcome{}
}

// TestScaledBetaAboveMatchesBeta runs ScaledBetaAbove beside Beta on
// one stream per (shape, floor) case. floor sits at fixed multiples of
// the mean — from far below, where nothing may be declined, to far
// above — and at the edges 0 and +Inf, and scale ≤ floor. The floors
// near the mean must see both answers and declines, so the check is
// not vacuous; floor 0 and +Inf must never decline.
func TestScaledBetaAboveMatchesBeta(t *testing.T) {
	const scale, n = 1e6, 4000
	for i, ab := range skipShapes {
		a, b := ab[0], ab[1]
		mean := scale * a / (a + b)
		floors := []struct {
			name           string
			floor          float64
			mustDecline    bool
			mustNotDecline bool
		}{
			{"zero", 0, false, true},
			{"inf", math.Inf(1), false, true},
			{"mean/100", mean / 100, false, false},
			{"mean", mean, true, false},
			{"2·mean", 2 * mean, true, false},
			{"scale", scale, true, false},
			{"2·scale", 2 * scale, true, false},
		}
		for _, f := range floors {
			ref, st := NewStream(3501, uint64(i)), NewStream(3501, uint64(i))
			declined := 0
			for k := 0; k < n; k++ {
				o := checkScaledBetaAbove(ref, st, a, b, scale, f.floor)
				if o.err != nil {
					t.Fatalf("Beta(%v, %v) floor %s (%v) draw %d: %v", a, b, f.name, f.floor, k, o.err)
				}
				if o.declined {
					declined++
				}
			}
			if f.mustNotDecline && declined > 0 {
				t.Errorf("Beta(%v, %v) floor %s: %d declines, want none", a, b, f.name, declined)
			}
			if f.mustDecline && declined == 0 {
				t.Errorf("Beta(%v, %v) floor %s: no declines in %d draws", a, b, f.name, n)
			}
		}
	}
}

// TestScaledBetaAboveAtDrawnValues sets floor at, one ulp below and one
// ulp above a value Beta draws, on a twin of the stream that draws it:
// the margin must keep the ulp-below floor from being declined where
// rounding alone would let it.
func TestScaledBetaAboveAtDrawnValues(t *testing.T) {
	for i, ab := range skipShapes {
		a, b := ab[0], ab[1]
		for _, scale := range []float64{1, 3.7e5, 1e9} {
			walk := NewStream(3502, uint64(i))
			for k := 0; k < 2000; k++ {
				before := *walk
				v := scale * walk.Beta(a, b)
				for _, floor := range []float64{math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1))} {
					ref, st := before, before
					if o := checkScaledBetaAbove(&ref, &st, a, b, scale, floor); o.err != nil {
						t.Fatalf("Beta(%v, %v) scale %v draw %d floor %v: %v", a, b, scale, k, floor, o.err)
					}
				}
			}
		}
	}
}

// TestScaledBetaAboveTinyScales holds the skip to its contract where the
// products of its test leave the normal range: subnormal and huge
// scales and floors, and floors a tiny fraction of scale.
func TestScaledBetaAboveTinyScales(t *testing.T) {
	scales := []float64{5e-324, 1e-310, 1e-300, 1e-30, 1, 1e300, math.MaxFloat64}
	for i, ab := range skipShapes {
		for _, scale := range scales {
			for _, floor := range []float64{5e-324, 1e-320, 1e-300, scale * 1e-290, scale * 1e-30, scale * 1e-3, scale, 1e300, math.MaxFloat64} {
				ref, st := NewStream(3503, uint64(i)), NewStream(3503, uint64(i))
				for k := 0; k < 200; k++ {
					if o := checkScaledBetaAbove(ref, st, ab[0], ab[1], scale, floor); o.err != nil {
						t.Fatalf("Beta(%v, %v) scale %v floor %v draw %d: %v", ab[0], ab[1], scale, floor, k, o.err)
					}
				}
			}
		}
	}
}

// TestScaledBetaAboveNonPositiveShapes: a ≤ 0 or b ≤ 0 is Beta's 0
// without a draw, answered as scale·0.
func TestScaledBetaAboveNonPositiveShapes(t *testing.T) {
	for _, ab := range [][2]float64{{0, 2}, {2, 0}, {-1, 3}, {0.5, -2}} {
		ref, st := New(3504), New(3504)
		if o := checkScaledBetaAbove(ref, st, ab[0], ab[1], 7, 1); o.err != nil || o.declined {
			t.Fatalf("Beta(%v, %v): declined %v, %v", ab[0], ab[1], o.declined, o.err)
		}
	}
}

// TestExpBound holds expBound(z) = 2^k to 2^k ≥ math.Exp(z) — on a
// sweep through every multiple of ln 2 down to the underflow region,
// with z a few ulp and a relative 2⁻³⁰ either side of each, on a
// uniform grid, and at z = 0, −0, the smallest negative float and −Inf
// — and, above the floor 2⁻¹⁰²¹, to within a factor 2 of e^z (up to
// 2^(|z|·log₂e·2⁻³⁰)), so that the bound stays useful.
func TestExpBound(t *testing.T) {
	check := func(z float64) {
		t.Helper()
		got, e := expBound(z), math.Exp(z)
		if !(got >= e) {
			t.Fatalf("expBound(%v) = %v < Exp = %v", z, got, e)
		}
		if z > -1021*math.Ln2 && got > 2*e*(1+1e-6) {
			t.Fatalf("expBound(%v) = %v, more than twice Exp = %v", z, got, e)
		}
		if frac, exp := math.Frexp(got); frac != 0.5 || exp < -1020 || exp > 1 {
			t.Fatalf("expBound(%v) = %v is not a power of two in [2⁻¹⁰²¹, 1]", z, got)
		}
	}
	for _, z := range []float64{0, math.Copysign(0, -1), -5e-324, -1e-300, -1e-17, -0x1p-28, math.Inf(-1), -math.MaxFloat64} {
		check(z)
	}
	for n := 0; n <= 1100; n++ {
		z0 := -float64(n) * math.Ln2
		for _, z := range []float64{z0, z0 * (1 + 0x1p-30), z0 * (1 - 0x1p-30), z0 * (1 + 0x1p-29), z0 * (1 - 0x1p-29)} {
			up, down := z, z
			for s := 0; s < 6; s++ {
				check(up)
				check(down)
				up = math.Nextafter(up, 0)
				down = math.Nextafter(down, math.Inf(-1))
			}
		}
	}
	for i := 0; i <= 2_000_000; i++ {
		check(-800 * float64(i) / 2_000_000)
	}
}
