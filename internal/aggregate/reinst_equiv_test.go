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
// every engine × sampling × seed × batch-size × terms-regime
// combination. Recoveries, occurrence maxima, per-contract tables AND
// the per-trial premium column all have to survive the flattening.

// naiveReinstatements is the oracle: one trial at a time over the
// materialized table, the loss index's entry scan, the Contract
// structs' nested []Layer, one layers.YearState per (contract, layer)
// and elt.SampleLoss — none of lossindex.Flat, layers.FlatYearStates or
// the precomputed sampling plans the kernel reads. It reads the terms
// off the input's book, and fills per-contract tables when cfg asks for
// them: a contract's annual recovery sums its layers' closes, its
// occurrence maximum its layers' recoveries per occurrence.
func naiveReinstatements(t *testing.T, in *Input, cfg Config) *Result {
	t.Helper()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	idx, err := in.EnsureIndex()
	if err != nil {
		t.Fatal(err)
	}
	n := in.YELT.NumTrials
	contracts := in.Portfolio.Contracts
	res := &Result{Portfolio: ylt.New("portfolio", n), Premium: make([]float64, n)}
	if cfg.PerContract {
		res.PerContract = make([]*ylt.Table, len(contracts))
		for ci, c := range contracts {
			res.PerContract[ci] = ylt.New(fmt.Sprintf("contract-%d", c.ID), n)
		}
	}
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
				states[ci][li] = c.Layers[li].NewYearState()
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
				var contractOcc float64
				for li := range c.Layers {
					rcv, p := states[ci][li].Occurrence(loss)
					sums[ci][li] += rcv
					occTotal += rcv
					contractOcc += rcv
					premium += p
				}
				if res.PerContract != nil && contractOcc > res.PerContract[ci].OccMax[trial] {
					res.PerContract[ci].OccMax[trial] = contractOcc
				}
			}
			if occTotal > occMax {
				occMax = occTotal
			}
		}
		var agg float64
		for ci := range contracts {
			for li := range sums[ci] {
				v := states[ci][li].CloseYear(sums[ci][li])
				agg += v
				if res.PerContract != nil {
					res.PerContract[ci].Agg[trial] += v
				}
			}
		}
		res.Portfolio.Agg[trial] = agg
		res.Portfolio.OccMax[trial] = occMax
		res.Premium[trial] = premium
	}
	return res
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

// reinstBitIdentical runs eng on in and holds its YLT, per-contract
// tables and premium column bit for bit to want.
func reinstBitIdentical(t *testing.T, name string, eng Engine, in *Input, cfg Config, want *Result) {
	t.Helper()
	got, err := eng.Run(context.Background(), in, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	resultsBitIdentical(t, name, want, got)
}

// reinstEngines are the host engines a reinstatement book runs on; the
// MapReduce split does not divide the 2000-trial synth.Small scenario.
var reinstEngines = []Engine{Sequential{}, Parallel{}, MapReduce{SplitTrials: 643}}

// Every host engine must match the oracle on every regime, in both
// modes, with and without per-contract tables.
func TestReinstKernelEquivalence(t *testing.T) {
	s := buildScenario(t, synth.Small(51))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	for regime, terms := range reinstRegimes(s.Portfolio) {
		in := reinstInput(&Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}, terms)
		for _, seed := range []uint64{5, 17} {
			for _, sampling := range []bool{false, true} {
				for _, perContract := range []bool{false, true} {
					cfg := Config{Seed: seed, Sampling: sampling, PerContract: perContract, Workers: 3}
					want := naiveReinstatements(t, in, cfg)
					for _, eng := range reinstEngines {
						name := fmt.Sprintf("%s/%s/sampling=%v/seed=%d/percontract=%v", regime, eng.Name(), sampling, seed, perContract)
						reinstBitIdentical(t, name, eng, in, cfg, want)
					}
				}
			}
		}
	}
}

// In expected mode no draw depends on the rest of the book, so each
// contract's column of a book run must equal the run of a book holding
// that contract alone, bit for bit.
func TestReinstPerContractMatchesOneContractBook(t *testing.T) {
	s := buildScenario(t, synth.Small(54))
	for regime, terms := range reinstRegimes(s.Portfolio) {
		pf := withTerms(s.Portfolio, terms)
		cfg := Config{Seed: 5, PerContract: true, Workers: 3}
		book, err := Parallel{}.Run(context.Background(), &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: pf}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for ci, c := range pf.Contracts {
			one := &Input{YELT: s.YELT, ELTs: []*elt.Table{s.ELTs[c.ELTIndex]}}
			c.ELTIndex = 0
			one.Portfolio = &layers.Portfolio{Contracts: []layers.Contract{c}}
			alone, err := Parallel{}.Run(context.Background(), one, Config{Seed: 5, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/contract %d", regime, ci)
			bitIdentical(t, name+" agg", book.PerContract[ci].Agg, alone.Portfolio.Agg)
			bitIdentical(t, name+" occmax", book.PerContract[ci].OccMax, alone.Portfolio.OccMax)
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
	want := naiveReinstatements(t, reinstInput(&Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}, terms),
		Config{Seed: 9, Sampling: true})
	for _, batch := range equivBatchSizes {
		cfg := Config{Seed: 9, Sampling: true, Workers: 2, BatchTrials: batch}
		reinstBitIdentical(t, fmt.Sprintf("batch=%d", batch), Parallel{}, reinstInput(streamingInput(t, s, ix), terms), cfg, want)
	}
}

// A bare input must lazily build the layouts the stateful kernel
// scans — the same laziness contract the stateless engines keep.
func TestReinstKernelLazyBuild(t *testing.T) {
	s := buildScenario(t, synth.Small(53))
	in := reinstInput(input(s), reinstRegimes(s.Portfolio)["binding"])
	if _, _, err := runReinst(context.Background(), in, Config{Seed: 3, Sampling: true}); err != nil {
		t.Fatal(err)
	}
	if in.Index == nil || in.Flat == nil {
		t.Fatal("stateful run did not memoize its layouts")
	}
}
