package aggregate

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/layers"
	"repro/internal/synth"
	"repro/internal/yelt"
)

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
	rin := &ReinstatementInput{Input: base, Terms: UnlimitedReinstatements(s.Portfolio)}
	stateful, err := RunReinstatements(context.Background(), rin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stateless.Portfolio.Agg {
		if math.Abs(stateless.Portfolio.Agg[i]-stateful.Portfolio.Agg[i]) > 1e-9*(1+stateless.Portfolio.Agg[i]) {
			t.Fatalf("trial %d: stateless %v vs unlimited-reinstatement %v",
				i, stateless.Portfolio.Agg[i], stateful.Portfolio.Agg[i])
		}
		if stateful.ReinstPremium[i] != 0 {
			t.Fatalf("trial %d: premium %v with zero rate", i, stateful.ReinstPremium[i])
		}
	}
}

func TestLimitedReinstatementsReduceRecovery(t *testing.T) {
	s := buildScenario(t, synth.Small(22))
	base := input(s)
	cfg := Config{Seed: 5, Sampling: true}
	unlimited, err := RunReinstatements(context.Background(),
		&ReinstatementInput{Input: base, Terms: UnlimitedReinstatements(s.Portfolio)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	limited, err := RunReinstatements(context.Background(),
		&ReinstatementInput{Input: base, Terms: reinstTerms(s.Portfolio, 0, 1)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sumU, sumL float64
	for i := range unlimited.Portfolio.Agg {
		if limited.Portfolio.Agg[i] > unlimited.Portfolio.Agg[i]+1e-9 {
			t.Fatalf("trial %d: limited recovery exceeds unlimited", i)
		}
		sumU += unlimited.Portfolio.Agg[i]
		sumL += limited.Portfolio.Agg[i]
	}
	if sumL >= sumU {
		t.Fatalf("zero reinstatements should cut total recoveries: %v vs %v", sumL, sumU)
	}
}

func TestReinstatementPremiumsAccrue(t *testing.T) {
	s := buildScenario(t, synth.Small(23))
	base := input(s)
	res, err := RunReinstatements(context.Background(),
		&ReinstatementInput{Input: base, Terms: reinstTerms(s.Portfolio, 2, 1.0)},
		Config{Seed: 5, Sampling: true})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, p := range res.ReinstPremium {
		if p < 0 {
			t.Fatal("negative premium")
		}
		total += p
	}
	if total == 0 {
		t.Fatal("a loss-making book should charge some reinstatement premium")
	}
}

func TestReinstatementsDeterministicAcrossWorkers(t *testing.T) {
	s := buildScenario(t, synth.Small(24))
	base := input(s)
	terms := reinstTerms(s.Portfolio, 1, 1.0)
	a, err := RunReinstatements(context.Background(),
		&ReinstatementInput{Input: base, Terms: terms}, Config{Seed: 3, Sampling: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReinstatements(context.Background(),
		&ReinstatementInput{Input: base, Terms: terms}, Config{Seed: 3, Sampling: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Portfolio.Agg {
		if a.Portfolio.Agg[i] != b.Portfolio.Agg[i] || a.ReinstPremium[i] != b.ReinstPremium[i] {
			t.Fatalf("trial %d differs across worker counts", i)
		}
	}
}

func TestReinstatementValidation(t *testing.T) {
	s := buildScenario(t, synth.Small(25))
	base := input(s)
	if _, err := RunReinstatements(context.Background(),
		&ReinstatementInput{Input: base, Terms: nil}, Config{}); err == nil {
		t.Fatal("missing terms should error")
	}
	short := UnlimitedReinstatements(s.Portfolio)
	short[0] = short[0][:0]
	if _, err := RunReinstatements(context.Background(),
		&ReinstatementInput{Input: base, Terms: short}, Config{}); err == nil {
		t.Fatal("mis-shaped terms should error")
	}
	bad := UnlimitedReinstatements(s.Portfolio)
	bad[0][0].Count = -1
	if _, err := RunReinstatements(context.Background(),
		&ReinstatementInput{Input: base, Terms: bad}, Config{}); err == nil {
		t.Fatal("negative count should error")
	}
}

func TestReinstatementsCancellation(t *testing.T) {
	s := buildScenario(t, synth.Small(26))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunReinstatements(ctx,
		&ReinstatementInput{Input: input(s), Terms: UnlimitedReinstatements(s.Portfolio)},
		Config{}); err == nil {
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
// processed — must abort the stateful engine promptly with
// context.Canceled (every other engine has this test; the
// reinstatements path polls in the same streamRange loop).
func TestReinstatementsMidRunCancellation(t *testing.T) {
	s := buildScenario(t, synth.Small(27))
	ctx, cancel := context.WithCancel(context.Background())
	src := &cancellingSource{inner: s.YELT, cancel: cancel, cancelAfter: 2}
	in := &ReinstatementInput{
		Input: &Input{Source: src, ELTs: s.ELTs, Portfolio: s.Portfolio},
		Terms: UnlimitedReinstatements(s.Portfolio),
	}
	_, err := RunReinstatements(ctx, in, Config{Workers: 1, BatchTrials: 100})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if src.reads < 2 {
		t.Fatalf("cancelled before any trials streamed (%d reads)", src.reads)
	}
	cancel()
}

// Expected mode never draws from the per-trial substream, so results
// must be independent of the seed — the contract that lets the engine
// skip RNG stream setup entirely when sampling is off.
func TestReinstatementsExpectedModeSeedIndependent(t *testing.T) {
	s := buildScenario(t, synth.Small(28))
	terms := reinstTerms(s.Portfolio, 1, 0.5)
	a, err := RunReinstatements(context.Background(),
		&ReinstatementInput{Input: input(s), Terms: terms}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReinstatements(context.Background(),
		&ReinstatementInput{Input: input(s), Terms: terms}, Config{Seed: 999_999_937})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Portfolio.Agg {
		if a.Portfolio.Agg[i] != b.Portfolio.Agg[i] ||
			a.Portfolio.OccMax[i] != b.Portfolio.OccMax[i] ||
			a.ReinstPremium[i] != b.ReinstPremium[i] {
			t.Fatalf("expected-mode trial %d depends on the seed", i)
		}
	}
}
