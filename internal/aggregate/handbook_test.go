package aggregate

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/elt"
	"repro/internal/layers"
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
		Occs: []yelt.Occurrence{
			{EventID: 1, DayOfYear: 10},
			{EventID: 2, DayOfYear: 5}, {EventID: 2, DayOfYear: 200},
			{EventID: 1, DayOfYear: 3}, {EventID: 3, DayOfYear: 100}, {EventID: 2, DayOfYear: 300},
			{EventID: 7, DayOfYear: 1}, {EventID: 1, DayOfYear: 50}, {EventID: 1, DayOfYear: 60},
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
