package aggregate

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/elt"
	"repro/internal/layers"
	"repro/internal/lossindex"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/ylt"
)

// The reinstatements kernel-equivalence suite: the flat SoA year-state
// kernel (runTrialReinstFlat over lossindex.Flat + layers.FlatYearStates)
// must be bit-identical to the nested-slice state machine it replaced
// (naiveReinstatements below, the production body until 8b424c6) for
// every sampling × seed × batch-size × terms-regime combination.
// Recoveries, occurrence maxima, AND the per-trial premium ledger all
// have to survive the flattening.

// naiveReinstatements is the oracle: one trial at a time over the
// materialized table, the loss index's entry scan, the Contract
// structs' nested []Layer, one layers.YearState per (contract, layer)
// and elt.SampleLoss — none of lossindex.Flat, layers.FlatYearStates or
// the precomputed sampling plans the kernel reads.
func naiveReinstatements(t *testing.T, in *Input, terms [][]layers.ReinstatementTerms, cfg Config) (*ylt.Table, []float64) {
	t.Helper()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	idx, err := in.EnsureIndex()
	if err != nil {
		t.Fatal(err)
	}
	n := in.YELT.NumTrials
	res := ylt.New("portfolio-reinst", n)
	premiums := make([]float64, n)
	contracts := in.Portfolio.Contracts
	states := make([][]layers.YearState, len(contracts))
	sums := make([][]float64, len(contracts))
	for ci, c := range contracts {
		states[ci] = make([]layers.YearState, len(c.Layers))
		sums[ci] = make([]float64, len(c.Layers))
	}
	for trial := 0; trial < n; trial++ {
		st := rng.NewStream(cfg.Seed, uint64(trial))
		for ci, c := range contracts {
			for li := range c.Layers {
				states[ci][li] = c.Layers[li].NewYearState(terms[ci][li])
				sums[ci][li] = 0
			}
		}
		var occMax, premium float64
		for _, occ := range in.YELT.OccurrencesOf(trial) {
			var occTotal float64
			for _, e := range idx.EntriesFor(occ.EventID) {
				ci := int(e.Contract)
				c := &contracts[ci]
				loss := e.Rec.MeanLoss
				if cfg.Sampling {
					loss = elt.SampleLoss(st, e.Rec)
				}
				for li := range c.Layers {
					rcv, p := states[ci][li].Occurrence(loss)
					sums[ci][li] += rcv
					occTotal += rcv
					premium += p
				}
			}
			if occTotal > occMax {
				occMax = occTotal
			}
		}
		var agg float64
		for ci := range contracts {
			for li := range sums[ci] {
				agg += states[ci][li].CloseYear(sums[ci][li])
			}
		}
		res.Agg[trial] = agg
		res.OccMax[trial] = occMax
		premiums[trial] = premium
	}
	return res, premiums
}

// reinstRegimes builds the terms regimes the suite sweeps: terms that
// never bind, terms that bind but reinstate, terms exhausted after the
// initial limit, and a mixed book where premium accrues on only some
// layers (zero upfront premium elsewhere — the premBase==0 encoding).
func reinstRegimes(pf *layers.Portfolio) map[string][][]layers.ReinstatementTerms {
	uniform := func(count int, rate, upfront float64) [][]layers.ReinstatementTerms {
		out := make([][]layers.ReinstatementTerms, len(pf.Contracts))
		for ci, c := range pf.Contracts {
			out[ci] = make([]layers.ReinstatementTerms, len(c.Layers))
			for li := range c.Layers {
				out[ci][li] = layers.ReinstatementTerms{Count: count, PremiumRate: rate, UpfrontPremium: upfront}
			}
		}
		return out
	}
	partial := uniform(2, 0.5, 750)
	fl := 0
	for ci := range partial {
		for li := range partial[ci] {
			if fl%2 == 0 {
				partial[ci][li].UpfrontPremium = 0
			}
			fl++
		}
	}
	return map[string][][]layers.ReinstatementTerms{
		"unlimited":       UnlimitedReinstatements(pf),
		"binding":         uniform(1, 1.0, 1000),
		"exhausted":       uniform(0, 1.0, 1000),
		"partial-premium": partial,
	}
}

// reinstBitIdentical runs the engine on in under terms and holds its
// YLT and premium ledger bit for bit to want and wantPrem.
func reinstBitIdentical(t *testing.T, name string, in *Input, terms [][]layers.ReinstatementTerms, cfg Config, want *ylt.Table, wantPrem []float64) {
	t.Helper()
	got, gotPrem, err := runReinst(context.Background(), in, terms, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	bitIdentical(t, name+" agg", want.Agg, got.Agg)
	bitIdentical(t, name+" occmax", want.OccMax, got.OccMax)
	bitIdentical(t, name+" premium", wantPrem, gotPrem)
}

func TestReinstKernelEquivalence(t *testing.T) {
	s := buildScenario(t, synth.Small(51))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := lossindex.Flatten(ix, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	for regime, terms := range reinstRegimes(s.Portfolio) {
		for _, seed := range []uint64{5, 17} {
			for _, sampling := range []bool{false, true} {
				name := fmt.Sprintf("%s/sampling=%v/seed=%d", regime, sampling, seed)
				cfg := Config{Seed: seed, Sampling: sampling, Workers: 3}
				in := &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix, Flat: fx}
				want, wantPrem := naiveReinstatements(t, in, terms, cfg)
				reinstBitIdentical(t, name, in, terms, cfg, want, wantPrem)
			}
		}
	}
}

// Batch size must not leak into the kernel's results: streaming
// sources at batch sizes that do and do not divide the trial count
// must match the materialized oracle bit-for-bit, premium ledger
// included.
func TestReinstKernelEquivalenceAcrossBatchSizes(t *testing.T) {
	s := buildScenario(t, synth.Small(52))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	terms := reinstRegimes(s.Portfolio)["binding"]
	want, wantPrem := naiveReinstatements(t, &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix},
		terms, Config{Seed: 9, Sampling: true})
	for _, batch := range equivBatchSizes {
		cfg := Config{Seed: 9, Sampling: true, Workers: 2, BatchTrials: batch}
		reinstBitIdentical(t, fmt.Sprintf("batch=%d", batch), streamingInput(t, s, ix), terms, cfg, want, wantPrem)
	}
}

// A bare input must lazily build the layouts the stateful kernel
// scans — the same laziness contract the stateless engines keep.
func TestReinstKernelLazyBuild(t *testing.T) {
	s := buildScenario(t, synth.Small(53))
	terms := reinstRegimes(s.Portfolio)["binding"]
	in := input(s)
	if _, _, err := runReinst(context.Background(), in, terms, Config{Seed: 3, Sampling: true}); err != nil {
		t.Fatal(err)
	}
	if in.Index == nil || in.Flat == nil {
		t.Fatal("stateful run did not memoize its layouts")
	}
}
