package aggregate

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/elt"
	"repro/internal/layers"
	"repro/internal/synth"
	"repro/internal/yelt"
)

func buildScenario(t testing.TB, p synth.Params) *synth.Scenario {
	t.Helper()
	s, err := synth.Build(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func input(s *synth.Scenario) *Input {
	return &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio}
}

func tablesAlmostEqual(t *testing.T, name string, a, b []float64, tol float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol*(1+math.Abs(a[i])) {
			t.Fatalf("%s: trial %d differs: %v vs %v", name, i, a[i], b[i])
		}
	}
}

func TestSequentialBasicShape(t *testing.T) {
	s := buildScenario(t, synth.Small(1))
	res, err := Sequential{}.Run(context.Background(), input(s), Config{Seed: 9, Sampling: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Portfolio.NumTrials() != s.YELT.NumTrials {
		t.Fatalf("trials = %d", res.Portfolio.NumTrials())
	}
	var nonZero int
	for i, agg := range res.Portfolio.Agg {
		if agg < 0 {
			t.Fatalf("negative aggregate loss at trial %d", i)
		}
		if res.Portfolio.OccMax[i] > agg+1e-9 && res.Portfolio.OccMax[i] > 0 {
			// OccMax is share-free, agg is post-share/post-agg-terms, so
			// OccMax can exceed agg when shares < 1 or agg terms bind;
			// with the synth CatXL (share 1, agg limit) only the limit
			// binds, which keeps agg <= occ sums — don't assert order,
			// just sanity of signs.
			_ = i
		}
		if agg > 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("no trial produced losses; scenario too sparse for a meaningful test")
	}
}

func TestSequentialDeterministic(t *testing.T) {
	s := buildScenario(t, synth.Small(2))
	cfg := Config{Seed: 4, Sampling: true}
	a, err := Sequential{}.Run(context.Background(), input(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sequential{}.Run(context.Background(), input(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Portfolio.Agg {
		if a.Portfolio.Agg[i] != b.Portfolio.Agg[i] {
			t.Fatalf("non-deterministic at trial %d", i)
		}
	}
}

func TestParallelMatchesSequentialSampling(t *testing.T) {
	s := buildScenario(t, synth.Small(3))
	cfg := Config{Seed: 11, Sampling: true}
	seq, err := Sequential{}.Run(context.Background(), input(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		cfg.Workers = workers
		par, err := Parallel{}.Run(context.Background(), input(s), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq.Portfolio.Agg {
			if seq.Portfolio.Agg[i] != par.Portfolio.Agg[i] {
				t.Fatalf("workers=%d trial %d: %v vs %v", workers, i,
					seq.Portfolio.Agg[i], par.Portfolio.Agg[i])
			}
			if seq.Portfolio.OccMax[i] != par.Portfolio.OccMax[i] {
				t.Fatalf("workers=%d occmax trial %d differs", workers, i)
			}
		}
	}
}

func TestSeedChangesSampledResults(t *testing.T) {
	s := buildScenario(t, synth.Small(4))
	a, err := Sequential{}.Run(context.Background(), input(s), Config{Seed: 1, Sampling: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sequential{}.Run(context.Background(), input(s), Config{Seed: 2, Sampling: true})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	diff := 0
	for i := range a.Portfolio.Agg {
		if a.Portfolio.Agg[i] == b.Portfolio.Agg[i] {
			same++
		} else {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds gave identical sampled results")
	}
}

func TestExpectedModeIgnoresSeed(t *testing.T) {
	s := buildScenario(t, synth.Small(5))
	a, err := Sequential{}.Run(context.Background(), input(s), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sequential{}.Run(context.Background(), input(s), Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Portfolio.Agg {
		if a.Portfolio.Agg[i] != b.Portfolio.Agg[i] {
			t.Fatal("expected mode should not depend on seed")
		}
	}
}

func TestPerContractSumsToPortfolio(t *testing.T) {
	s := buildScenario(t, synth.Small(6))
	cfg := Config{Seed: 3, Sampling: true, PerContract: true}
	res, err := Parallel{}.Run(context.Background(), input(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerContract) != len(s.Portfolio.Contracts) {
		t.Fatalf("per-contract tables = %d", len(res.PerContract))
	}
	for trial := 0; trial < res.Portfolio.NumTrials(); trial++ {
		var sum float64
		for _, pc := range res.PerContract {
			sum += pc.Agg[trial]
		}
		if math.Abs(sum-res.Portfolio.Agg[trial]) > 1e-9*(1+sum) {
			t.Fatalf("trial %d: contracts sum %v != portfolio %v", trial, sum, res.Portfolio.Agg[trial])
		}
	}
}

func TestChunkedMatchesSequentialExpectedMode(t *testing.T) {
	p := synth.Small(7)
	p.OccurrenceOnly = true
	p.TwoLayers = true
	s := buildScenario(t, p)
	cfg := Config{}
	seq, err := Sequential{}.Run(context.Background(), input(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, naive := range []bool{false, true} {
		ch := &Chunked{Naive: naive}
		dev, err := ch.Run(context.Background(), input(s), cfg)
		if err != nil {
			t.Fatal(err)
		}
		tablesAlmostEqual(t, ch.Name()+" agg", seq.Portfolio.Agg, dev.Portfolio.Agg, 1e-9)
		tablesAlmostEqual(t, ch.Name()+" occmax", seq.Portfolio.OccMax, dev.Portfolio.OccMax, 1e-9)
		if ch.LastStats.Blocks == 0 {
			t.Fatal("device stats not captured")
		}
	}
}

func TestChunkedOversizedBlockFallback(t *testing.T) {
	// Blocks so large their occurrences cannot fit in shared memory
	// must degrade to global probes, not fault — and still agree with
	// the host engine.
	p := synth.Small(27)
	p.OccurrenceOnly = true
	s := buildScenario(t, p)
	cfg := Config{}
	seq, err := Sequential{}.Run(context.Background(), input(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	huge := &Chunked{TrialsPerBlock: s.YELT.NumTrials} // one giant block
	dev, err := huge.Run(context.Background(), input(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tablesAlmostEqual(t, "oversized-block agg", seq.Portfolio.Agg, dev.Portfolio.Agg, 1e-9)
	tablesAlmostEqual(t, "oversized-block occmax", seq.Portfolio.OccMax, dev.Portfolio.OccMax, 1e-9)

	// The fallback is the naive kernel's loop: the same work at the same
	// block size, plus the two offset loads read before the fit check.
	naive := &Chunked{TrialsPerBlock: huge.TrialsPerBlock, Naive: true}
	if _, err := naive.Run(context.Background(), input(s), cfg); err != nil {
		t.Fatal(err)
	}
	got, want := huge.LastStats, naive.LastStats
	if got.GlobalAccesses != want.GlobalAccesses+2 || got.SharedAccesses != 0 ||
		got.ArithOps != want.ArithOps || got.TransferFloats != want.TransferFloats {
		t.Fatalf("fallback stats %+v, naive %+v", got, want)
	}
}

func TestChunkedCheaperThanNaive(t *testing.T) {
	p := synth.Small(8)
	p.OccurrenceOnly = true
	s := buildScenario(t, p)
	cfg := Config{}
	chunked := &Chunked{}
	if _, err := chunked.Run(context.Background(), input(s), cfg); err != nil {
		t.Fatal(err)
	}
	naive := &Chunked{Naive: true}
	if _, err := naive.Run(context.Background(), input(s), cfg); err != nil {
		t.Fatal(err)
	}
	if chunked.LastStats.BlockCycles >= naive.LastStats.BlockCycles {
		t.Fatalf("chunked cycles %d should be below naive %d",
			chunked.LastStats.BlockCycles, naive.LastStats.BlockCycles)
	}
}

func TestChunkedRejectsUnsupported(t *testing.T) {
	p := synth.Small(9)
	p.OccurrenceOnly = true
	s := buildScenario(t, p)
	ch := &Chunked{}
	if _, err := ch.Run(context.Background(), input(s), Config{Sampling: true}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("sampling should be rejected on device: err = %v", err)
	}
	if _, err := ch.Run(context.Background(), input(s), Config{PerContract: true}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("per-contract should be rejected on device: err = %v", err)
	}
	withAgg := buildScenario(t, synth.Small(10)) // has aggregate terms
	if _, err := ch.Run(context.Background(), input(withAgg), Config{}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("aggregate terms should be rejected on device: err = %v", err)
	}
}

func TestValidateInput(t *testing.T) {
	s := buildScenario(t, synth.Small(11))
	good := input(s)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.YELT = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil YELT should fail")
	}
	bad = *good
	bad.ELTs = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("no ELTs should fail")
	}
	bad = *good
	bad.Portfolio = &layers.Portfolio{Contracts: []layers.Contract{
		{ID: 1, ELTIndex: 99, Layers: []layers.Layer{{}}},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("dangling ELT index should fail")
	}
	bad = *good
	bad.Portfolio = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil portfolio should fail")
	}
}

func TestCancellation(t *testing.T) {
	s := buildScenario(t, synth.Small(12))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Sequential{}).Run(ctx, input(s), Config{}); err == nil {
		t.Fatal("sequential should honor cancellation")
	}
	if _, err := (Parallel{}).Run(ctx, input(s), Config{}); err == nil {
		t.Fatal("parallel should honor cancellation")
	}
	ch := &Chunked{}
	p := synth.Small(13)
	p.OccurrenceOnly = true
	s2 := buildScenario(t, p)
	if _, err := ch.Run(ctx, input(s2), Config{}); err == nil {
		t.Fatal("chunked should honor cancellation")
	}
}

func TestLayerTermsBindInAggregate(t *testing.T) {
	// A portfolio whose single layer has a tiny aggregate limit: annual
	// recoveries must cap at it.
	s := buildScenario(t, synth.Small(14))
	limited := &layers.Portfolio{}
	const aggLimit = 1000.0
	for i := range s.Portfolio.Contracts {
		limited.Contracts = append(limited.Contracts, layers.Contract{
			ID: uint32(i + 1), ELTIndex: i,
			Layers: []layers.Layer{{OccRetention: 0, AggLimit: aggLimit, Share: 1}},
		})
	}
	in := &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: limited}
	res, err := Sequential{}.Run(context.Background(), in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	maxAllowed := aggLimit * float64(len(limited.Contracts))
	for trial, agg := range res.Portfolio.Agg {
		if agg > maxAllowed+1e-9 {
			t.Fatalf("trial %d: %v exceeds portfolio aggregate cap %v", trial, agg, maxAllowed)
		}
	}
}

func TestEmptyTrialYearsProduceZero(t *testing.T) {
	// Hand-built YELT where trial 0 has no occurrences.
	s := buildScenario(t, synth.Small(15))
	y := &yelt.Table{
		NumTrials: 2,
		Offsets:   []int64{0, 0, int64(len(s.YELT.OccurrencesOf(0)))},
		Occs:      s.YELT.OccurrencesOf(0),
	}
	in := &Input{YELT: y, ELTs: s.ELTs, Portfolio: s.Portfolio}
	res, err := Sequential{}.Run(context.Background(), in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Portfolio.Agg[0] != 0 || res.Portfolio.OccMax[0] != 0 {
		t.Fatal("empty trial year must produce zero loss")
	}
}

func TestEventsMissingFromELTAreSkipped(t *testing.T) {
	// An ELT covering none of the YELT's events: all trials zero.
	s := buildScenario(t, synth.Small(16))
	empty := elt.New(1, []elt.Record{{EventID: 4_000_000, MeanLoss: 5, ExposedValue: 10}})
	in := &Input{
		YELT:      s.YELT,
		ELTs:      []*elt.Table{empty},
		Portfolio: &layers.Portfolio{Contracts: []layers.Contract{{ID: 1, ELTIndex: 0, Layers: []layers.Layer{{}}}}},
	}
	res, err := Parallel{}.Run(context.Background(), in, Config{Sampling: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for trial, agg := range res.Portfolio.Agg {
		if agg != 0 {
			t.Fatalf("trial %d nonzero for disjoint ELT", trial)
		}
	}
}
