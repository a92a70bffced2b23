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
	"repro/internal/yelt"
)

// hitCursorYELT builds trial years from per-trial patterns of hits
// ('h', an event that carries a loss in the book) and misses ('m', one
// that does not), drawing the events of each kind in turn from the two
// pools.
func hitCursorYELT(trials []string, hitIDs, missIDs []uint32) *yelt.Table {
	y := &yelt.Table{NumTrials: len(trials), Offsets: []int64{0}}
	var nh, nm int
	for _, pattern := range trials {
		for _, kind := range pattern {
			var id uint32
			if kind == 'h' {
				id, nh = hitIDs[nh%len(hitIDs)], nh+1
			} else {
				id, nm = missIDs[nm%len(missIDs)], nm+1
			}
			y.Occs = append(y.Occs, id)
		}
		y.Offsets = append(y.Offsets, int64(len(y.Occs)))
	}
	return y
}

// TestHitCursorEdges holds the hits-only occurrence stages to the
// LegacyLookup oracle, bit for bit on Agg, OccMax and the per-contract
// columns, where the hit list and its per-trial cursor meet their
// edges. With blocks of 4 trials the hand-written years give a block
// with an empty trial, an all-miss trial and a mixed one; a block in
// which nothing hits; one in which everything hits; hits on both sides
// of a trial boundary; an empty block; and a short last block whose
// last occurrence hits. Seeded random years follow, each block of 4
// with a hit share of 0, 0.2 or 1. Both the whole book and a
// one-contract book (a quote's) run it, in the sampled kernel with and
// without per-contract maxima and in the per-contract expected kernel,
// at block sizes 1, 4 and the default.
func TestHitCursorEdges(t *testing.T) {
	s := buildScenario(t, synth.Small(52))
	trials := []string{
		"", "mm", "hmh", "",
		"m", "", "mmm", "m",
		"h", "hh", "hhh", "h",
		"mh", "hm", "", "h",
		"", "", "", "",
	}
	st := rng.New(52)
	for b := 0; b < 40; b++ {
		share := []float64{0, 0.2, 1}[b%3]
		for i := 0; i < 4; i++ {
			pattern := make([]byte, st.Intn(7))
			for j := range pattern {
				pattern[j] = 'm'
				if st.Float64() < share {
					pattern[j] = 'h'
				}
			}
			trials = append(trials, string(pattern))
		}
	}
	trials = append(trials, "m", "mh")

	c0 := s.Portfolio.Contracts[0]
	books := []struct {
		name string
		elts []*elt.Table
		pf   *layers.Portfolio
	}{
		{"book", s.ELTs, s.Portfolio},
		{"one-contract", s.ELTs[c0.ELTIndex : c0.ELTIndex+1], &layers.Portfolio{Contracts: []layers.Contract{{ID: c0.ID, ELTIndex: 0, Layers: c0.Layers}}}},
	}
	ctx := context.Background()
	for _, b := range books {
		ix, err := lossindex.Build(b.elts, b.pf)
		if err != nil {
			t.Fatal(err)
		}
		fx, err := lossindex.Flatten(ix, b.pf)
		if err != nil {
			t.Fatal(err)
		}
		var maxID uint32
		for _, e := range s.ELTs {
			for _, r := range e.Records {
				maxID = max(maxID, r.EventID)
			}
		}
		var hitIDs, missIDs []uint32
		for id := uint32(0); id <= maxID+2; id++ {
			if lo, hi := fx.Span(id); lo < hi {
				hitIDs = append(hitIDs, id)
			} else {
				missIDs = append(missIDs, id)
			}
		}
		missIDs = append(missIDs, 4_000_000) // beyond every event of the catalogue
		if len(hitIDs) < 10 || len(missIDs) < 10 {
			t.Fatalf("%s: %d hit and %d miss events, want both pools", b.name, len(hitIDs), len(missIDs))
		}
		y := hitCursorYELT(trials, hitIDs, missIDs)
		for _, mode := range []struct{ sampling, perContract bool }{{true, false}, {true, true}, {false, true}} {
			cfg := Config{Seed: 77, Sampling: mode.sampling, PerContract: mode.perContract}
			want, err := LegacyLookup{}.Run(ctx, &Input{YELT: y, ELTs: b.elts, Portfolio: b.pf}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, block := range []int{1, 4, 0} {
				cfg.TrialBlock = block
				in := &Input{YELT: y, ELTs: b.elts, Portfolio: b.pf, Index: ix, Flat: fx}
				got, err := Sequential{}.Run(ctx, in, cfg)
				if err != nil {
					t.Fatal(err)
				}
				resultsBitIdentical(t, fmt.Sprintf("%s/sampling=%v/percon=%v/block=%d", b.name, mode.sampling, mode.perContract, block), want, got)
			}
		}
	}
}
