package aggregate

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/elt"
	"repro/internal/layers"
	"repro/internal/mathx"
	"repro/internal/yelt"
)

// TestHandComputedBook is the one stage-2 check that shares no code with
// any implementation: every expected number is a literal worked out
// below by hand, so a bug common to the kernel and the oracle (which
// share layers and rng) still fails it.
//
// One contract, mean losses per event (no spread, so sampling mode
// draws nothing and must give the same numbers): event 1 → 250,
// event 2 → 600, event 3 → 1000; event 7 is not in the ELT.
//
//	layer A: 300 xs 100 per occurrence, 400 xs 150 in the annual aggregate, 50 % share
//	layer B: unlimited xs 400 per occurrence, annual limit 500, 25 % share
//
// Occurrence recoveries min(max(loss − ret, 0), lim), before shares:
//
//	event   loss    A     B    A+B (the occurrence's portfolio recovery)
//	  1      250   150     0   150
//	  2      600   300   200   500
//	  3     1000   300   600   900
//
// Annual payout min(max(Σ − ret, 0), lim) · share per layer, summed:
//
//	trial  year's events   ΣA    ΣB   A: (ΣA−150 ≤ 400)·½    B: (ΣB ≤ 500)·¼   Agg   OccMax
//	  0    1               150     0   0   (retention just met)   0                  0     150
//	  1    —                 0     0   0                          0                  0       0
//	  2    2, 2            600   400   400·½ = 200 (limit binds)  400·¼ = 100      300     500
//	  3    1, 3, 2         750   800   400·½ = 200 (limit binds)  500·¼ = 125      325     900
//	  4    7, 1, 1         300     0   150·½ = 75                 0                 75     150
func TestHandComputedBook(t *testing.T) {
	wantAgg := []float64{0, 0, 300, 325, 75}
	wantOccMax := []float64{150, 0, 500, 900, 150}

	elts := []*elt.Table{elt.New(1, []elt.Record{
		{EventID: 1, MeanLoss: 250, ExposedValue: 2000},
		{EventID: 2, MeanLoss: 600, ExposedValue: 2000},
		{EventID: 3, MeanLoss: 1000, ExposedValue: 2000},
	})}
	pf := &layers.Portfolio{Contracts: []layers.Contract{{ID: 1, ELTIndex: 0, Layers: []layers.Layer{
		{OccRetention: 100, OccLimit: 300, AggRetention: 150, AggLimit: 400, Share: 0.5},
		{OccRetention: 400, AggLimit: 500, Share: 0.25},
	}}}}
	years := &yelt.Table{
		NumTrials: 5,
		Offsets:   []int64{0, 1, 1, 3, 6, 9},
		// Event ids in occurrence order, one line a non-empty year.
		Occs: []uint32{
			1,
			2, 2,
			1, 3, 2,
			7, 1, 1,
		},
	}

	engines := []Engine{Sequential{}, Parallel{}, MapReduce{SplitTrials: 2}, LegacyLookup{}}
	for _, e := range engines {
		for _, sampling := range []bool{false, true} {
			name := fmt.Sprintf("%s/sampling=%v", e.Name(), sampling)
			in := &Input{YELT: years, ELTs: elts, Portfolio: pf}
			res, err := e.Run(context.Background(), in, Config{Seed: 3, Sampling: sampling, PerContract: true, Workers: 2, BatchTrials: 2})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			bitIdentical(t, name+" agg", wantAgg, res.Portfolio.Agg)
			bitIdentical(t, name+" occmax", wantOccMax, res.Portfolio.OccMax)
			if len(res.PerContract) != 1 {
				t.Fatalf("%s: %d per-contract tables, want 1", name, len(res.PerContract))
			}
			bitIdentical(t, name+" contract agg", wantAgg, res.PerContract[0].Agg)
			bitIdentical(t, name+" contract occmax", wantOccMax, res.PerContract[0].OccMax)
		}
	}
}

// TestGroundUpBookSampledMean checks the sampling kernel against a
// closed-form mean it has no part in computing. On a ground-up book —
// no retention, no limit, full share, no annual terms — a year's loss
// is the plain sum of its occurrence losses, and each sampled loss is a
// beta scaled to have the record's MeanLoss. So, given the trial years,
// E[sampled year − expected-mode year] = 0 exactly, trial by trial, and
// the paired differences are independent: their mean must sit within
// 4 of its own standard errors of zero. The beta plans are the ones
// the benchmark books produce (internal/rng's bookShapes) plus one
// record without spread; the trial years are a fixed pattern, not
// drawn.
func TestGroundUpBookSampledMean(t *testing.T) {
	shapes := [][2]float64{{0.017, 3.6}, {0.08, 7.4}, {0.23, 16.3}, {0.46, 31.8}, {0.74, 48.5}, {6, 86}}
	var recs []elt.Record
	for i, ab := range shapes {
		// Method of moments backwards: Beta(a, b) on [0, ev] has mean
		// ev·a/(a+b) and variance ev²·mu(1−mu)/(a+b+1).
		ev := 1e6 * float64(i+1)
		mu := ab[0] / (ab[0] + ab[1])
		sigma := ev * math.Sqrt(mu*(1-mu)/(ab[0]+ab[1]+1))
		recs = append(recs, elt.Record{EventID: uint32(i + 1), MeanLoss: mu * ev, SigmaI: 0.6 * sigma, SigmaC: 0.4 * sigma, ExposedValue: ev})
	}
	recs = append(recs, elt.Record{EventID: uint32(len(shapes) + 1), MeanLoss: 5e4, ExposedValue: 1e6})
	elts := []*elt.Table{elt.New(1, recs), elt.New(2, recs[2:5])}
	pf := &layers.Portfolio{Contracts: []layers.Contract{
		{ID: 1, ELTIndex: 0, Layers: []layers.Layer{{}}},
		{ID: 2, ELTIndex: 1, Layers: []layers.Layer{{}}},
	}}

	const trials = 120000
	years := &yelt.Table{NumTrials: trials, Offsets: make([]int64, 1, trials+1)}
	for tr := 0; tr < trials; tr++ {
		for j := 0; j < tr%5; j++ {
			ev := uint32((tr*7+j*3)%(len(recs)+1)) + 1 // one id past the ELT: an event the book does not cover
			years.Occs = append(years.Occs, ev)
		}
		years.Offsets = append(years.Offsets, int64(len(years.Occs)))
	}

	for _, e := range []Engine{Sequential{}, LegacyLookup{}} {
		run := func(sampling bool) []float64 {
			res, err := e.Run(context.Background(), &Input{YELT: years, ELTs: elts, Portfolio: pf}, Config{Seed: 23, Sampling: sampling})
			if err != nil {
				t.Fatalf("%s/sampling=%v: %v", e.Name(), sampling, err)
			}
			return res.Portfolio.Agg
		}
		expected, sampled := run(false), run(true)
		diff := make([]float64, trials)
		for i := range diff {
			diff[i] = sampled[i] - expected[i]
		}
		mean, se, expMean := mathx.Mean(diff), mathx.StdDev(diff)/math.Sqrt(trials), mathx.Mean(expected)
		if se <= 0 || expMean <= 0 {
			t.Fatalf("%s: degenerate book (se %v, expected-mode mean %v); the test pins nothing", e.Name(), se, expMean)
		}
		t.Logf("%s: sampled − expected mean %.1f (expected-mode mean %.1f), standard error %.1f", e.Name(), mean, expMean, se)
		if math.Abs(mean) > 4*se {
			t.Errorf("%s: sampled mean is %.2f standard errors from the expected-mode mean", e.Name(), mean/se)
		}
	}
}
