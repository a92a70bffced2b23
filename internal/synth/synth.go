// Package synth assembles complete synthetic risk-analytics scenarios:
// a stochastic catalogue, per-contract exposure databases, stage-1
// ELTs computed by the catastrophe-model engine, reinsurance programs
// sized against those ELTs, and a pre-simulated YELT. It is the shared
// test-bed generator used by integration tests, benchmarks, the CLI
// tools and the examples, so that every consumer exercises the same
// end-to-end data path the paper describes.
package synth

import (
	"context"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/catmodel"
	"repro/internal/elt"
	"repro/internal/exposure"
	"repro/internal/layers"
	"repro/internal/yelt"
)

// Params sizes a scenario. The zero value is invalid; use Small and
// override.
type Params struct {
	Seed                 uint64
	NumEvents            int
	NumContracts         int
	LocationsPerContract int
	NumTrials            int
	MeanEventsPerYear    float64
	// OccurrenceOnly builds layers without annual-aggregate terms,
	// the subset the device engine supports.
	OccurrenceOnly bool
	// TwoLayers adds a working layer under the cat layer.
	TwoLayers bool
	// Workers is passed to the parallel generators; <= 0 GOMAXPROCS.
	Workers int
	// SkipYELT leaves Scenario.YELT nil — for streaming consumers that
	// derive trial batches on demand via YELTGenerator instead of
	// holding the table resident.
	SkipYELT bool
}

// Small returns a scenario that builds in well under a second — the
// unit/integration test scale.
func Small(seed uint64) Params {
	return Params{
		Seed:                 seed,
		NumEvents:            800,
		NumContracts:         4,
		LocationsPerContract: 120,
		NumTrials:            2_000,
		MeanEventsPerYear:    10,
	}
}

// Scenario is a fully wired stage-1 + stage-2 input set.
type Scenario struct {
	Params    Params
	Catalog   *catalog.Catalog
	Exposures []*exposure.Database
	ELTs      []*elt.Table
	Portfolio *layers.Portfolio
	YELT      *yelt.Table
}

// Build generates the scenario deterministically from p.Seed.
func Build(ctx context.Context, p Params) (*Scenario, error) {
	if p.NumEvents <= 0 || p.NumContracts <= 0 || p.NumTrials <= 0 {
		return nil, fmt.Errorf("synth: invalid params %+v", p)
	}
	if p.LocationsPerContract <= 0 {
		p.LocationsPerContract = 100
	}
	if p.MeanEventsPerYear <= 0 {
		p.MeanEventsPerYear = 10
	}

	ccfg := catalog.DefaultConfig()
	ccfg.NumEvents = p.NumEvents
	ccfg.MeanEventsPerYear = p.MeanEventsPerYear
	cat, err := catalog.Generate(ccfg, p.Seed)
	if err != nil {
		return nil, fmt.Errorf("synth: catalogue: %w", err)
	}

	s := &Scenario{Params: p, Catalog: cat}

	// Stage 1: one exposure database and ELT per contract.
	if s.Exposures, err = Exposures(p.Seed, p.NumContracts, p.LocationsPerContract); err != nil {
		return nil, err
	}
	eng := catmodel.New()
	eng.Workers = p.Workers
	if s.ELTs, err = eng.RunPortfolio(ctx, cat, s.Exposures); err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}

	s.Portfolio = BuildPortfolio(s.ELTs, p.OccurrenceOnly, p.TwoLayers)

	// Stage-2 input: the pre-simulated years (skipped when the consumer
	// streams trials instead — see YELTGenerator).
	if !p.SkipYELT {
		s.YELT, err = yelt.Generate(ctx, cat, yelt.Config{NumTrials: p.NumTrials, Workers: p.Workers}, p.Seed+7)
		if err != nil {
			return nil, fmt.Errorf("synth: yelt: %w", err)
		}
	}
	return s, nil
}

// Exposures generates a book's exposure databases: contract c (from 0)
// has the given number of locations and is drawn from seed+1000+c.
func Exposures(seed uint64, contracts, locations int) ([]*exposure.Database, error) {
	dbs := make([]*exposure.Database, contracts)
	for c := range dbs {
		ecfg := exposure.DefaultConfig()
		ecfg.NumLocations = locations
		db, err := exposure.Generate(ecfg, seed+uint64(1000+c))
		if err != nil {
			return nil, fmt.Errorf("synth: exposure %d: %w", c, err)
		}
		dbs[c] = db
	}
	return dbs, nil
}

// YELTGenerator returns the streaming trial source that re-derives
// exactly the trials of the scenario's materialized YELT (same
// catalogue, config, and seed) — the handle equivalence tests and
// streaming consumers use. It works whether or not SkipYELT was set.
func (s *Scenario) YELTGenerator() (*yelt.Generator, error) {
	return yelt.NewGenerator(s.Catalog,
		yelt.Config{NumTrials: s.Params.NumTrials, Workers: s.Params.Workers}, s.Params.Seed+7)
}

func meanEventLoss(t *elt.Table) float64 {
	if t.Len() == 0 {
		return 1
	}
	return t.ExpectedLoss() / float64(t.Len())
}

// BuildPortfolio writes a reinsurance program against each ELT, sized
// by the contract's mean event loss so layers attach at realistic
// points of the severity curve. occurrenceOnly strips annual-aggregate
// terms (the device engine's supported subset); twoLayers adds a
// working layer under the cat layer.
func BuildPortfolio(elts []*elt.Table, occurrenceOnly, twoLayers bool) *layers.Portfolio {
	pf := &layers.Portfolio{}
	for c, tbl := range elts {
		mean := meanEventLoss(tbl)
		var ls []layers.Layer
		cat := layers.StandardCatXL(mean)
		if occurrenceOnly {
			cat.AggRetention = 0
			cat.AggLimit = 0
		}
		ls = append(ls, cat)
		if twoLayers {
			wl := layers.WorkingLayer(mean)
			if occurrenceOnly {
				wl.AggRetention = 0
				wl.AggLimit = 0
			}
			ls = append(ls, wl)
		}
		pf.Contracts = append(pf.Contracts, layers.Contract{
			ID:       uint32(c + 1),
			ELTIndex: c,
			Layers:   ls,
		})
	}
	return pf
}
