package aggregate

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/elt"
	"repro/internal/layers"
	"repro/internal/lossindex"
	"repro/internal/rng"
	"repro/internal/synth"
)

// The sampling kernels skip a draw that rng.Stream.ScaledBetaAbove
// proves at or below its contract's lowest occurrence retention
// (layers.FlatTerms.MinOccRet). These books put the retentions where
// the skip decides something, and hold every engine to its oracle bit
// for bit: Sequential and Parallel to LegacyLookup, which draws every
// loss through elt.SampleLoss and plain Beta, and a book with
// reinstatement terms to naiveReinstatements, which does the same.

const skipSeed = 61

// withRetentions returns a copy of pf in which each contract's layers
// are shifted so that its lowest occurrence retention is ret[ci], the
// other layers keeping their distance above it.
func withRetentions(pf *layers.Portfolio, ret []float64) *layers.Portfolio {
	out := &layers.Portfolio{Contracts: make([]layers.Contract, len(pf.Contracts))}
	for ci, c := range pf.Contracts {
		lo := math.Inf(1)
		for _, l := range c.Layers {
			lo = math.Min(lo, l.OccRetention)
		}
		c.Layers = slices.Clone(c.Layers)
		for li := range c.Layers {
			r := &c.Layers[li].OccRetention
			if *r == lo {
				*r = ret[ci]
			} else {
				*r = max(*r+ret[ci]-lo, ret[ci])
			}
		}
		out.Contracts[ci] = c
	}
	return out
}

// sampledWalk replays the kernels' draws over the first n trials of s:
// one substream per trial, occurrences in YELT order, entries in
// portfolio contract order, a draw exactly for a plan with a > 0. visit
// sees each draw's entry and the stream positioned before it, and must
// advance the stream past the draw.
func sampledWalk(t *testing.T, s *synth.Scenario, pf *layers.Portfolio, n int, visit func(st *rng.Stream, e lossindex.Entry)) {
	t.Helper()
	ix, err := lossindex.Build(s.ELTs, pf)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < n; trial++ {
		st := rng.NewStream(skipSeed, uint64(trial))
		for _, occ := range s.YELT.OccurrencesOf(trial) {
			for _, e := range ix.EntriesFor(occ.EventID) {
				if _, a, _, _ := elt.SampleParams(e.Rec); a > 0 {
					visit(st, e)
				} else {
					elt.SampleLoss(st, e.Rec)
				}
			}
		}
	}
}

// skipShares returns, per contract, the share of the kernels' draws
// over the first n trials that ScaledBetaAbove declines under pf.
func skipShares(t *testing.T, s *synth.Scenario, pf *layers.Portfolio, n int) []float64 {
	ft, err := layers.FlattenTerms(pf)
	if err != nil {
		t.Fatal(err)
	}
	declined := make([]float64, len(pf.Contracts))
	draws := make([]float64, len(pf.Contracts))
	sampledWalk(t, s, pf, n, func(st *rng.Stream, e lossindex.Entry) {
		_, a, b, scale := elt.SampleParams(e.Rec)
		if _, above := st.ScaledBetaAbove(a, b, scale, ft.MinOccRet[e.Contract]); !above {
			declined[e.Contract]++
		}
		draws[e.Contract]++
	})
	for ci := range declined {
		declined[ci] /= draws[ci]
	}
	return declined
}

// skipBooks builds the three books of the skip suite from one scenario:
//
//   - median: each contract's lowest retention at the median of the
//     losses the kernels draw for it, so about half its draws skip;
//   - zero-layer: the median book with an OccRetention 0 layer added
//     to contract 0, which then skips nothing;
//   - drawn: each contract's lowest retention equal to the first loss
//     drawn for it, so the kernels meet a loss exactly at a retention.
func skipBooks(t *testing.T, s *synth.Scenario) map[string]*layers.Portfolio {
	nc := len(s.Portfolio.Contracts)
	losses := make([][]float64, nc)
	sampledWalk(t, s, s.Portfolio, s.YELT.NumTrials, func(st *rng.Stream, e lossindex.Entry) {
		losses[e.Contract] = append(losses[e.Contract], elt.SampleLoss(st, e.Rec))
	})
	median := make([]float64, nc)
	drawn := make([]float64, nc)
	for ci, l := range losses {
		if len(l) == 0 {
			t.Fatalf("contract %d: no sampled draws", ci)
		}
		drawn[ci] = l[0]
		slices.Sort(l)
		median[ci] = l[len(l)/2]
	}
	medianBook := withRetentions(s.Portfolio, median)
	zeroLayer := withRetentions(s.Portfolio, median)
	c0 := &zeroLayer.Contracts[0]
	c0.Layers = append([]layers.Layer{{OccRetention: 0, OccLimit: median[0], Share: 1}}, c0.Layers...)
	return map[string]*layers.Portfolio{
		"median":     medianBook,
		"zero-layer": zeroLayer,
		"drawn":      withRetentions(s.Portfolio, drawn),
	}
}

// skipScenario is the suite's scenario: the small book with a working
// layer under each cat layer, so every contract has two retentions.
func skipScenario(t *testing.T) *synth.Scenario {
	p := synth.Small(54)
	p.TwoLayers = true
	return buildScenario(t, p)
}

// TestSkipBooksSkip checks that the books test what they claim: about
// half the draws skip on the median book, none of contract 0's on the
// zero-layer book, and the drawn book's retentions are drawn losses.
func TestSkipBooksSkip(t *testing.T) {
	s := skipScenario(t)
	books := skipBooks(t, s)
	n := s.YELT.NumTrials
	for ci, share := range skipShares(t, s, books["median"], n) {
		if share < 0.25 || share > 0.5 {
			t.Errorf("median book, contract %d: %.3f of draws skip, want about half (0.25–0.5)", ci, share)
		}
	}
	zero := skipShares(t, s, books["zero-layer"], n)
	if zero[0] != 0 {
		t.Errorf("zero-layer book, contract 0: %.3f of draws skip, want none", zero[0])
	}
	if zero[1] == 0 {
		t.Error("zero-layer book, contract 1: no draw skips")
	}
	ft, err := layers.FlattenTerms(books["drawn"])
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, len(ft.MinOccRet))
	sampledWalk(t, s, books["drawn"], n, func(st *rng.Stream, e lossindex.Entry) {
		if elt.SampleLoss(st, e.Rec) == ft.MinOccRet[e.Contract] {
			seen[e.Contract] = true
		}
	})
	for ci, ok := range seen {
		if !ok {
			t.Errorf("drawn book, contract %d: no draw equals its retention %v", ci, ft.MinOccRet[ci])
		}
	}
}

// TestSkipEquivalence runs each skip book through Sequential and
// Parallel against LegacyLookup, with and without per-contract tables,
// and, with reinstatement terms that bind and terms that never do,
// through Parallel against naiveReinstatements.
func TestSkipEquivalence(t *testing.T) {
	s := skipScenario(t)
	ctx := context.Background()
	for name, pf := range skipBooks(t, s) {
		oracleIn := &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: pf}
		for _, perContract := range []bool{false, true} {
			cfg := Config{Seed: skipSeed, Sampling: true, PerContract: perContract, Workers: 3}
			want, err := LegacyLookup{}.Run(ctx, oracleIn, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range []Engine{Sequential{}, Parallel{}} {
				got, err := eng.Run(ctx, &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: pf}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				resultsBitIdentical(t, fmt.Sprintf("%s/%s/percontract=%v", name, eng.Name(), perContract), want, got)
			}
		}
		regimes := reinstRegimes(pf)
		for _, regime := range []string{"binding", "unlimited"} {
			cfg := Config{Seed: skipSeed, Sampling: true, Workers: 3}
			in := reinstInput(&Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: pf}, regimes[regime])
			want := naiveReinstatements(t, in, cfg)
			reinstBitIdentical(t, fmt.Sprintf("%s/reinstatements/%s", name, regime), Parallel{}, in, cfg, want)
		}
	}
}
