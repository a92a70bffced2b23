package synth

import (
	"context"
	"testing"
)

func TestBuildSmallScenario(t *testing.T) {
	s, err := Build(context.Background(), Small(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Catalog.Len() != 800 {
		t.Fatalf("catalogue size = %d", s.Catalog.Len())
	}
	if len(s.ELTs) != 4 || len(s.Exposures) != 4 {
		t.Fatalf("contracts = %d/%d", len(s.ELTs), len(s.Exposures))
	}
	if len(s.Portfolio.Contracts) != 4 {
		t.Fatalf("portfolio contracts = %d", len(s.Portfolio.Contracts))
	}
	if err := s.Portfolio.Validate(); err != nil {
		t.Fatalf("portfolio invalid: %v", err)
	}
	if s.YELT.NumTrials != 2000 {
		t.Fatalf("trials = %d", s.YELT.NumTrials)
	}
	for i, e := range s.ELTs {
		if e.Len() == 0 {
			t.Fatalf("contract %d has empty ELT — scenario too sparse", i)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(context.Background(), Small(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(context.Background(), Small(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.ELTs[0].ExpectedLoss() != b.ELTs[0].ExpectedLoss() {
		t.Fatal("scenario not reproducible")
	}
	if a.YELT.Len() != b.YELT.Len() {
		t.Fatal("YELT not reproducible")
	}
}

func TestBuildOccurrenceOnlyStripsAggTerms(t *testing.T) {
	p := Small(2)
	p.OccurrenceOnly = true
	p.TwoLayers = true
	s, err := Build(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range s.Portfolio.Contracts {
		if len(c.Layers) != 2 {
			t.Fatalf("contract %d layers = %d", c.ID, len(c.Layers))
		}
		for _, l := range c.Layers {
			if l.AggRetention != 0 || l.AggLimit != 0 {
				t.Fatalf("occurrence-only layer carries aggregate terms: %+v", l)
			}
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(context.Background(), Params{}); err == nil {
		t.Fatal("zero params should error")
	}
}

func TestBuildPortfolioSizing(t *testing.T) {
	s, err := Build(context.Background(), Small(3))
	if err != nil {
		t.Fatal(err)
	}
	pf := BuildPortfolio(s.ELTs, false, false)
	for i, c := range pf.Contracts {
		if len(c.Layers) != 1 {
			t.Fatalf("single-layer portfolio has %d layers", len(c.Layers))
		}
		mean := s.ELTs[i].ExpectedLoss() / float64(s.ELTs[i].Len())
		if c.Layers[0].OccRetention != 5*mean {
			t.Fatalf("layer not sized to the contract's mean event loss")
		}
	}
}
