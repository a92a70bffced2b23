package aggregate

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/layers"
	"repro/internal/synth"
	"repro/internal/yelt"
	"repro/internal/ylt"
)

// runReinst runs the reinstatements engine under terms and returns the
// portfolio YLT and the premium ledger.
func runReinst(ctx context.Context, in *Input, terms [][]layers.ReinstatementTerms, cfg Config) (*ylt.Table, []float64, error) {
	eng := &Reinstatements{Terms: terms}
	res, err := eng.Run(ctx, in, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res.Portfolio, eng.LastPremium, nil
}

// UnlimitedReinstatements builds terms that never bind (a large count
// and no premium), under which the reinstatements engine must agree
// with the stateless engines.
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
	stateful, premium, err := runReinst(context.Background(), base, UnlimitedReinstatements(s.Portfolio), cfg)
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
	unlimited, _, err := runReinst(context.Background(), base, UnlimitedReinstatements(s.Portfolio), cfg)
	if err != nil {
		t.Fatal(err)
	}
	limited, _, err := runReinst(context.Background(), base, reinstTerms(s.Portfolio, 0, 1), cfg)
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

// Premium accrues under explicit terms and under the standard terms
// nil Terms stands for.
func TestReinstatementPremiumsAccrue(t *testing.T) {
	s := buildScenario(t, synth.Small(23))
	for name, terms := range map[string][][]layers.ReinstatementTerms{
		"explicit": reinstTerms(s.Portfolio, 2, 1.0),
		"standard": nil,
	} {
		_, premium, err := runReinst(context.Background(), input(s), terms, Config{Seed: 5, Sampling: true})
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
	base := input(s)
	terms := reinstTerms(s.Portfolio, 1, 1.0)
	a, aPrem, err := runReinst(context.Background(), base, terms, Config{Seed: 3, Sampling: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, bPrem, err := runReinst(context.Background(), base, terms, Config{Seed: 3, Sampling: true, Workers: 8})
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
	if _, _, err := runReinst(context.Background(), base, [][]layers.ReinstatementTerms{}, Config{}); err == nil {
		t.Fatal("terms with no rows should error")
	}
	short := UnlimitedReinstatements(s.Portfolio)
	short[0] = short[0][:0]
	if _, _, err := runReinst(context.Background(), base, short, Config{}); err == nil {
		t.Fatal("mis-shaped terms should error")
	}
	bad := UnlimitedReinstatements(s.Portfolio)
	bad[0][0].Count = -1
	if _, _, err := runReinst(context.Background(), base, bad, Config{}); err == nil {
		t.Fatal("negative count should error")
	}
	// The stateful path has no per-contract tables; the engine must
	// refuse the option rather than return nil slots.
	if _, _, err := runReinst(context.Background(), base, nil, Config{PerContract: true}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("PerContract on an engine that cannot produce it: err = %v, want ErrUnsupported", err)
	}
}

func TestReinstatementsCancellation(t *testing.T) {
	s := buildScenario(t, synth.Small(26))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := runReinst(ctx, input(s), UnlimitedReinstatements(s.Portfolio), Config{}); err == nil {
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
	in := &Input{Source: src, ELTs: s.ELTs, Portfolio: s.Portfolio}
	_, _, err := runReinst(ctx, in, UnlimitedReinstatements(s.Portfolio), Config{Workers: 1, BatchTrials: 100})
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
	a, aPrem, err := runReinst(context.Background(), input(s), terms, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, bPrem, err := runReinst(context.Background(), input(s), terms, Config{Seed: 999_999_937})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Agg {
		if a.Agg[i] != b.Agg[i] || a.OccMax[i] != b.OccMax[i] || aPrem[i] != bPrem[i] {
			t.Fatalf("expected-mode trial %d depends on the seed", i)
		}
	}
}
