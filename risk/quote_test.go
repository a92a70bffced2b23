package risk

import (
	"context"
	"sync"
	"testing"
	"time"
)

// An invalid contract index must be rejected before lazy stage-1
// initialization — the pre-fix behavior generated the catalogue, every
// ELT, and the loss index (seconds of work at production scale) before
// noticing the request was doomed.
func TestPriceContractFailFastInvalidContract(t *testing.T) {
	study := NewStudy(smallConfig(20))
	start := time.Now()
	if _, err := study.PriceContract(context.Background(), 99, 1000); err == nil {
		t.Fatal("out-of-range contract should error")
	}
	if _, err := study.PriceContract(context.Background(), -1, 1000); err == nil {
		t.Fatal("negative contract should error")
	}
	if study.p != nil {
		t.Fatal("invalid contract triggered pipeline initialization")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("fail-fast validation took %v", d)
	}
}

// RunModelling then a full Run must execute stage 1 exactly once and
// report exactly one line per stage — the serving-tier lifecycle
// (warm-up, then the portfolio report on demand).
func TestRunModellingThenRunReportsEachStageOnce(t *testing.T) {
	study := NewStudy(smallConfig(22))
	if err := study.RunModelling(context.Background()); err != nil {
		t.Fatal(err)
	}
	cat := study.p.Catalog
	rep, err := study.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if study.p.Catalog != cat {
		t.Fatal("Run re-executed stage 1 after RunModelling")
	}
	counts := map[string]int{}
	for _, st := range rep.Stages {
		counts[st.Name]++
	}
	for _, name := range []string{"risk-modelling", "loss-index", "portfolio-risk", "dfa"} {
		if counts[name] != 1 {
			t.Fatalf("stage %q has %d report lines, want 1 (stages: %+v)", name, counts[name], rep.Stages)
		}
	}
	if len(rep.Stages) != 4 {
		t.Fatalf("stages = %d, want 4", len(rep.Stages))
	}
}

// WarmQuotes must build every per-contract layout up front, and quotes
// afterwards must reuse exactly those cached layouts.
func TestWarmQuotesPrebuildsLayouts(t *testing.T) {
	study := NewStudy(smallConfig(23))
	if err := study.WarmQuotes(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := len(study.quoteFlat); n != study.NumContracts() {
		t.Fatalf("warmed %d contracts, want %d", n, study.NumContracts())
	}
	flat0 := study.quoteFlat[0]
	q, err := study.PriceContract(context.Background(), 0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if q.AAL <= 0 {
		t.Fatal("warm quote should have positive AAL")
	}
	if study.quoteFlat[0] != flat0 {
		t.Fatal("quote rebuilt a layout WarmQuotes had cached")
	}
}

func TestNumContractsDefaults(t *testing.T) {
	if n := NewStudy(Config{}).NumContracts(); n != DefaultConfig().Contracts {
		t.Fatalf("zero config NumContracts = %d, want default %d", n, DefaultConfig().Contracts)
	}
	if n := NewStudy(smallConfig(1)).NumContracts(); n != 3 {
		t.Fatalf("NumContracts = %d, want 3", n)
	}
}

// The serving-tier concurrency contract: after warm-up, concurrent
// PriceContract calls across contracts may overlap one full Run.
// Quotes must stay deterministic throughout (run with -race in CI).
func TestConcurrentQuotesDuringRun(t *testing.T) {
	study := NewStudy(smallConfig(24))
	if err := study.WarmQuotes(context.Background()); err != nil {
		t.Fatal(err)
	}
	ref := make([]*Quote, study.NumContracts())
	for c := range ref {
		q, err := study.PriceContract(context.Background(), c, 1000)
		if err != nil {
			t.Fatal(err)
		}
		ref[c] = q
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := study.Run(context.Background()); err != nil {
			errc <- err
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				c := i % study.NumContracts()
				q, err := study.PriceContract(context.Background(), c, 1000)
				if err != nil {
					errc <- err
					return
				}
				if q.AAL != ref[c].AAL || q.TVaR99 != ref[c].TVaR99 {
					errc <- errNondeterministic(c)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

type errNondeterministic int

func (e errNondeterministic) Error() string {
	return "concurrent quote diverged from reference for contract " + string(rune('0'+int(e)))
}
