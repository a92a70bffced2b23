package aggregate

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/layers"
	"repro/internal/synth"
	"repro/internal/yelt"
	"repro/internal/ylt"
)

// withTerms returns a copy of the book whose layers carry reinstatement
// terms: terms[ci][li] on contract ci's layer li, or
// layers.StandardReinstatements when terms is nil.
func withTerms(pf *layers.Portfolio, terms [][]layers.ReinstatementTerms) *layers.Portfolio {
	out := &layers.Portfolio{Contracts: slices.Clone(pf.Contracts)}
	for ci := range out.Contracts {
		ls := slices.Clone(out.Contracts[ci].Layers)
		if terms != nil {
			for li := range ls {
				t := terms[ci][li]
				ls[li].Reinstatements = &t
			}
		}
		out.Contracts[ci].Layers = ls
	}
	if terms == nil {
		layers.StandardReinstatements(out)
	}
	return out
}

// reinstInput returns in over withTerms(in.Portfolio, terms): the same
// trials, ELTs and loss index, and a flat layout built for the new book
// on first use.
func reinstInput(in *Input, terms [][]layers.ReinstatementTerms) *Input {
	b := *in
	b.Portfolio = withTerms(in.Portfolio, terms)
	b.Flat = nil
	return &b
}

// runReinst runs Parallel over a book with reinstatement terms and
// returns the portfolio YLT and the premium column.
func runReinst(ctx context.Context, in *Input, cfg Config) (*ylt.Table, []float64, error) {
	res, err := Parallel{}.Run(ctx, in, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res.Portfolio, res.Premium, nil
}

// UnlimitedReinstatements builds terms that never bind (a large count
// and no premium), under which a book must agree with the same book
// without terms.
func UnlimitedReinstatements(pf *layers.Portfolio) [][]layers.ReinstatementTerms {
	out := make([][]layers.ReinstatementTerms, len(pf.Contracts))
	for ci, c := range pf.Contracts {
		out[ci] = make([]layers.ReinstatementTerms, len(c.Layers))
		for li := range c.Layers {
			out[ci][li] = layers.ReinstatementTerms{Count: 1 << 20}
		}
	}
	return out
}

func reinstTerms(pf *layers.Portfolio, count int, rate float64) [][]layers.ReinstatementTerms {
	out := make([][]layers.ReinstatementTerms, len(pf.Contracts))
	for ci, c := range pf.Contracts {
		out[ci] = make([]layers.ReinstatementTerms, len(c.Layers))
		for li := range c.Layers {
			out[ci][li] = layers.ReinstatementTerms{
				Count: count, PremiumRate: rate, UpfrontPremium: 1000,
			}
		}
	}
	return out
}

func TestUnlimitedReinstatementsMatchStateless(t *testing.T) {
	s := buildScenario(t, synth.Small(21))
	base := input(s)
	cfg := Config{Seed: 5, Sampling: true}
	stateless, err := Sequential{}.Run(context.Background(), base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stateful, premium, err := runReinst(context.Background(), reinstInput(base, UnlimitedReinstatements(s.Portfolio)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stateless.Portfolio.Agg {
		if math.Abs(stateless.Portfolio.Agg[i]-stateful.Agg[i]) > 1e-9*(1+stateless.Portfolio.Agg[i]) {
			t.Fatalf("trial %d: stateless %v vs unlimited-reinstatement %v",
				i, stateless.Portfolio.Agg[i], stateful.Agg[i])
		}
		if premium[i] != 0 {
			t.Fatalf("trial %d: premium %v with zero rate", i, premium[i])
		}
	}
}

func TestLimitedReinstatementsReduceRecovery(t *testing.T) {
	s := buildScenario(t, synth.Small(22))
	base := input(s)
	cfg := Config{Seed: 5, Sampling: true}
	unlimited, _, err := runReinst(context.Background(), reinstInput(base, UnlimitedReinstatements(s.Portfolio)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	limited, _, err := runReinst(context.Background(), reinstInput(base, reinstTerms(s.Portfolio, 0, 1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sumU, sumL float64
	for i := range unlimited.Agg {
		if limited.Agg[i] > unlimited.Agg[i]+1e-9 {
			t.Fatalf("trial %d: limited recovery exceeds unlimited", i)
		}
		sumU += unlimited.Agg[i]
		sumL += limited.Agg[i]
	}
	if sumL >= sumU {
		t.Fatalf("zero reinstatements should cut total recoveries: %v vs %v", sumL, sumU)
	}
}

// Premium accrues under explicit terms and under
// layers.StandardReinstatements.
func TestReinstatementPremiumsAccrue(t *testing.T) {
	s := buildScenario(t, synth.Small(23))
	for name, terms := range map[string][][]layers.ReinstatementTerms{
		"explicit": reinstTerms(s.Portfolio, 2, 1.0),
		"standard": nil,
	} {
		_, premium, err := runReinst(context.Background(), reinstInput(input(s), terms), Config{Seed: 5, Sampling: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var total float64
		for _, p := range premium {
			if p < 0 {
				t.Fatalf("%s: negative premium", name)
			}
			total += p
		}
		if total == 0 {
			t.Fatalf("%s terms: a loss-making book should charge some reinstatement premium", name)
		}
	}
}

func TestReinstatementsDeterministicAcrossWorkers(t *testing.T) {
	s := buildScenario(t, synth.Small(24))
	base := reinstInput(input(s), reinstTerms(s.Portfolio, 1, 1.0))
	a, aPrem, err := runReinst(context.Background(), base, Config{Seed: 3, Sampling: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, bPrem, err := runReinst(context.Background(), base, Config{Seed: 3, Sampling: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Agg {
		if a.Agg[i] != b.Agg[i] || aPrem[i] != bPrem[i] {
			t.Fatalf("trial %d differs across worker counts", i)
		}
	}
}

func TestReinstatementValidation(t *testing.T) {
	s := buildScenario(t, synth.Small(25))
	base := input(s)
	bad := UnlimitedReinstatements(s.Portfolio)
	bad[0][0].Count = -1
	if _, _, err := runReinst(context.Background(), reinstInput(base, bad), Config{}); err == nil {
		t.Fatal("negative count should error")
	}
	// The stateful walk fills per-contract tables like the stateless
	// one: one full-length table per contract, next to the premium.
	book := reinstInput(base, nil)
	res, err := Parallel{}.Run(context.Background(), book, Config{PerContract: true})
	if err != nil {
		t.Fatalf("per-contract tables over a reinstatement book: %v", err)
	}
	if len(res.PerContract) != len(s.Portfolio.Contracts) || len(res.Premium) != s.YELT.NumTrials {
		t.Fatalf("%d per-contract tables and %d premium slots, want %d and %d",
			len(res.PerContract), len(res.Premium), len(s.Portfolio.Contracts), s.YELT.NumTrials)
	}
	// The engines that would drop the terms refuse the book instead.
	for _, eng := range []Engine{LegacyLookup{}, &Chunked{}} {
		if _, err := eng.Run(context.Background(), book, Config{}); !errors.Is(err, ErrUnsupported) ||
			!strings.Contains(err.Error(), "reinstatement terms") {
			t.Fatalf("%s over a reinstatement book: err = %v, want ErrUnsupported for reinstatement terms", eng.Name(), err)
		}
	}
}

func TestReinstatementsCancellation(t *testing.T) {
	s := buildScenario(t, synth.Small(26))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := runReinst(ctx, reinstInput(input(s), UnlimitedReinstatements(s.Portfolio)), Config{}); err == nil {
		t.Fatal("cancelled run should error")
	}
}

// cancellingSource cancels its context after serving cancelAfter
// reads — the mid-run cancellation shape (a client disconnect, a
// deadline firing while trials stream).
type cancellingSource struct {
	inner       yelt.Source
	cancel      context.CancelFunc
	cancelAfter int
	reads       int
}

func (c *cancellingSource) TrialCount() int { return c.inner.TrialCount() }

func (c *cancellingSource) ReadTrials(ctx context.Context, lo, hi int, buf *yelt.Table) (*yelt.Table, error) {
	c.reads++
	if c.reads == c.cancelAfter {
		c.cancel()
	}
	return c.inner.ReadTrials(ctx, lo, hi, buf)
}

// A cancellation arriving mid-run — after trials have already been
// processed — must abort a reinstatement book's run promptly with
// context.Canceled (every engine has this test; the stateful walk
// polls in the same streamRange loop).
func TestReinstatementsMidRunCancellation(t *testing.T) {
	s := buildScenario(t, synth.Small(27))
	ctx, cancel := context.WithCancel(context.Background())
	src := &cancellingSource{inner: s.YELT, cancel: cancel, cancelAfter: 2}
	in := &Input{Source: src, ELTs: s.ELTs, Portfolio: s.Portfolio}
	_, _, err := runReinst(ctx, reinstInput(in, UnlimitedReinstatements(s.Portfolio)), Config{Workers: 1, BatchTrials: 100})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if src.reads < 2 {
		t.Fatalf("cancelled before any trials streamed (%d reads)", src.reads)
	}
	cancel()
}

// Expected mode never draws from the per-trial substream, so results
// must be independent of the seed — the contract that lets the walk
// skip RNG stream setup entirely when sampling is off.
func TestReinstatementsExpectedModeSeedIndependent(t *testing.T) {
	s := buildScenario(t, synth.Small(28))
	book := reinstInput(input(s), reinstTerms(s.Portfolio, 1, 0.5))
	a, aPrem, err := runReinst(context.Background(), book, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, bPrem, err := runReinst(context.Background(), book, Config{Seed: 999_999_937})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Agg {
		if a.Agg[i] != b.Agg[i] || a.OccMax[i] != b.OccMax[i] || aPrem[i] != bPrem[i] {
			t.Fatalf("expected-mode trial %d depends on the seed", i)
		}
	}
}
