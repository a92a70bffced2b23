// Package risk is the public API of the high-performance risk
// analytics pipeline reproduced from Varghese & Rau-Chaplin, "Data
// Challenges in High-Performance Risk Analytics" (SC 2012). It wraps
// the three pipeline stages — catastrophe modelling, portfolio
// aggregate analysis, and dynamic financial analysis — behind a small
// surface: configure a Study, run it, read risk summaries, and price
// individual contracts in "real time" against a pre-simulated YELT.
// It is one of stage 2's two front doors, the one for studies and
// quotes; the sharded, replicated, fault-injected batch run is
// cmd/riskpipeline's.
//
// A minimal session:
//
//	study := risk.NewStudy(risk.DefaultConfig())
//	report, err := study.Run(ctx)
//	// report.Catastrophe.AAL, report.Enterprise.TVaR99, ...
//	// report.Catastrophe.ReturnRows: OEP and AEP by return period
//	quote, err := study.PriceContract(ctx, 0, 1_000_000)
//
// A summary and a report are the pipeline's own types (Summary is
// metrics.Summary, Report is core.Report), so the serving tier writes
// what the pipeline computed without reshaping it.
package risk

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/layers"
	"repro/internal/lossindex"
	"repro/internal/metrics"
	"repro/internal/warehouse"
	"repro/internal/yelt"
)

// EngineKind selects the stage-2 aggregate-analysis engine by the
// name riskpipeline's -engine flag takes: "parallel" (the default, and
// what the serving tier and the benchmark run), "sequential" or
// "mapreduce". Reinstatements are terms of a book, not an engine
// (riskpipeline's -reinstatements flag). The simulated-device engine
// takes occurrence-only books, which a study's never is, so it has no
// name here; cmd/benchtables runs it (E1, E4).
type EngineKind string

// EngineParallel is the native data-parallel engine, the default.
const EngineParallel EngineKind = "parallel"

func (k EngineKind) engine() (aggregate.Engine, error) {
	if k == "" {
		k = EngineParallel
	}
	eng, err := aggregate.EngineByName(string(k))
	if err != nil {
		return nil, fmt.Errorf("risk: %w", err)
	}
	return eng, nil
}

// Config sizes a study. Zero fields take defaults. A study holds its
// trial table in memory; streaming, spilling, fault injection,
// speculation and provisioning are options of cmd/riskpipeline.
type Config struct {
	Seed                 uint64
	Events               int
	Contracts            int
	LocationsPerContract int
	Trials               int
	MeanEventsPerYear    float64
	Engine               EngineKind
	// Sampling enables secondary-uncertainty sampling in stage 2.
	Sampling bool
	// CubeDims, when non-empty, materializes the warehouse data cube
	// over the named contract-attribute dimensions during Run (e.g.
	// {"region", "lob"}); cube cells are then served by CubeQuery
	// without touching the simulation. Empty = no cube.
	CubeDims []string
	// Rho correlates the DFA risk sources with the catastrophe book.
	Rho float64
	// Workers bounds parallelism everywhere; 0 means all cores.
	Workers int
}

// DefaultConfig returns a configuration that runs a meaningful study
// in seconds on a laptop.
func DefaultConfig() Config {
	return Config{
		Seed:                 1,
		Events:               10_000,
		Contracts:            16,
		LocationsPerContract: 300,
		Trials:               100_000,
		MeanEventsPerYear:    10,
		Engine:               EngineParallel,
		Rho:                  0.25,
	}
}

// Summary is a portfolio risk report: metrics' own, tagged with the
// keys the serving tier writes. Its ReturnRows ascend in return period.
type Summary = metrics.Summary

// Report is the result of a full study run: the pipeline's own.
type Report = core.Report

// Study is a configured pipeline instance. Create with NewStudy.
//
// Concurrency: PriceContract and WarmQuotes are safe to call
// concurrently with each other. Once stage 1 has completed (after
// RunModelling, WarmQuotes, or a full Run), a single Run may also
// proceed concurrently with quote calls — quotes read only the
// immutable stage-1 artifacts, which an idempotent Run no longer
// regenerates, and three pieces of quote-only state a Run never
// touches: the per-contract layouts (quoteFlat, under quoteMu), the
// resident quote trial table (quoteTable, published through an atomic
// pointer and never written after publication) and its counters
// (atomics). QuoteTableInfo and CubeInfo may be polled at
// any time. All other method combinations require external
// serialization.
type Study struct {
	cfg Config
	p   *core.Pipeline
	ran bool
	// quoteFlat caches the single-contract flat kernel layout (and,
	// through Flat.Index, its loss index) per contract, so repeated
	// real-time quotes skip the pre-join as well as stage 1. quoteMu
	// guards the map and PriceContract's lazy pipeline/stage-1
	// initialization.
	quoteMu   sync.Mutex
	quoteFlat map[int]*lossindex.Flat
	// quoteTable is the resident quote trial table: trials [0, n) of
	// the Seed+101 stream for the largest n a quote has asked for. The
	// stream depends on neither the contract nor the trial count, so
	// every quote reads a prefix of this one table. A published table
	// is immutable; growth builds a longer copy and swaps the pointer,
	// so a quote the published table covers loads it and goes, whatever
	// growth is in progress. quoteGrow (capacity 1) is held while
	// growing, one growth at a time; it is a channel, not a mutex, so a
	// quote waiting its turn still honours its context.
	quoteTable  atomic.Pointer[yelt.Table]
	quoteGrow   chan struct{}
	quoteBudget int64 // quoteTableBudget, except in tests
	// quoteGrowHook, when set by a test, runs with quoteGrow held just
	// before a growth generates trials.
	quoteGrowHook func()
	// quoteHits, quoteGrows and quoteStreamed count quotes by where
	// their trials came from (see QuoteTableInfo).
	quoteHits, quoteGrows, quoteStreamed atomic.Int64
	// cubeMu guards cube, the warehouse cube latched by the last
	// completed Run, so a serving tier can answer CubeQuery and
	// CubeInfo concurrently with a run in flight.
	cubeMu sync.Mutex
	cube   *warehouse.Cube
}

// quoteTableBudget bounds the estimated in-memory size of the resident
// quote trial table (yelt.ResidentBytes). A quote that would grow it
// past this streams its trials from the fused generator instead, in
// memory bounded by batch × workers. At 10 events a year a trial holds
// 48 B (an 8-B offset and a 4-B event id an occurrence), so 256 MiB
// covers about 5.6 million trials, well past the serving tier's default
// trial cap (2 000 000).
const quoteTableBudget = 256 << 20

// NewStudy returns an unexecuted study.
func NewStudy(cfg Config) *Study {
	return &Study{cfg: cfg, quoteGrow: make(chan struct{}, 1), quoteBudget: quoteTableBudget}
}

func (s *Study) pipeline() (*core.Pipeline, error) {
	if s.p != nil {
		return s.p, nil
	}
	eng, err := s.cfg.Engine.engine()
	if err != nil {
		return nil, err
	}
	s.p = core.New(core.Config{
		Seed:                 s.cfg.Seed,
		NumEvents:            s.cfg.Events,
		NumContracts:         s.cfg.Contracts,
		LocationsPerContract: s.cfg.LocationsPerContract,
		MeanEventsPerYear:    s.cfg.MeanEventsPerYear,
		NumTrials:            s.cfg.Trials,
		Engine:               eng,
		Sampling:             s.cfg.Sampling,
		CubeDims:             s.cfg.CubeDims,
		Rho:                  s.cfg.Rho,
		Workers:              s.cfg.Workers,
		TwoLayers:            true,
	})
	return s.p, nil
}

// Run executes all three stages and returns the study report.
func (s *Study) Run(ctx context.Context) (*Report, error) {
	p, err := s.pipeline()
	if err != nil {
		return nil, err
	}
	rep, err := p.Run(ctx)
	if err != nil {
		return nil, err
	}
	s.ran = true
	s.cubeMu.Lock()
	s.cube = p.Cube
	s.cubeMu.Unlock()
	return rep, nil
}

// ErrCubeNotBuilt is returned by the cube query methods before a cube
// exists: the study has not run yet, or Config.CubeDims is empty.
var ErrCubeNotBuilt = errors.New("risk: no cube built (set Config.CubeDims and run the study)")

// ErrNoCubeCell is returned when no materialized cube cell matches a
// query filter — an unknown dimension value, a non-cube dimension, or
// an empty filter.
var ErrNoCubeCell = errors.New("risk: no cube cell matches the filter")

// cubeHandle returns the cube latched by the last completed Run.
func (s *Study) cubeHandle() (*warehouse.Cube, error) {
	s.cubeMu.Lock()
	defer s.cubeMu.Unlock()
	if s.cube == nil {
		return nil, ErrCubeNotBuilt
	}
	return s.cube, nil
}

// CubeQuery serves a pre-computed risk summary from the warehouse
// cube for a dimension filter such as {"region": "coastal"} — a
// dictionary lookup, no simulation. The answer is a copy: concurrent
// queries share the cell. Safe to call concurrently with other methods
// once a Run has completed.
func (s *Study) CubeQuery(filter map[string]string) (Summary, error) {
	cube, err := s.cubeHandle()
	if err != nil {
		return Summary{}, err
	}
	cell, err := cube.Query(filter)
	if err != nil {
		return Summary{}, fmt.Errorf("%w: %v", ErrNoCubeCell, err)
	}
	sum := *cell.Summary
	sum.ReturnRows = slices.Clone(sum.ReturnRows)
	return sum, nil
}

// CubeQueryDirect re-derives the same summary from the cube's
// per-contract registry, bypassing the pre-computed cell — the
// self-check behind the serving tier's check=direct mode. It must
// match CubeQuery exactly.
func (s *Study) CubeQueryDirect(filter map[string]string) (Summary, error) {
	cube, err := s.cubeHandle()
	if err != nil {
		return Summary{}, err
	}
	sum, err := cube.RecomputeCell(filter)
	if err != nil {
		if errors.Is(err, warehouse.ErrNoCell) {
			return Summary{}, fmt.Errorf("%w: %v", ErrNoCubeCell, err)
		}
		return Summary{}, err
	}
	return *sum, nil
}

// CubeInfo describes the study's materialized cube for stats
// endpoints.
type CubeInfo struct {
	Built     bool     `json:"cube_built"`
	Dims      []string `json:"cube_dims,omitempty"`
	Cells     int      `json:"cube_cells"`
	SizeBytes int64    `json:"cube_size_bytes"`
}

// CubeInfo reports the cube's shape (zero value before a cube
// exists). Safe to call concurrently with other methods.
func (s *Study) CubeInfo() CubeInfo {
	s.cubeMu.Lock()
	cube := s.cube
	s.cubeMu.Unlock()
	if cube == nil {
		return CubeInfo{}
	}
	return CubeInfo{Built: true, Dims: cube.Dims(), Cells: cube.Cells(), SizeBytes: cube.SizeBytes()}
}

// CatastropheLosses returns a copy of the per-trial catastrophe
// aggregate losses (the cat YLT). Run must have completed.
func (s *Study) CatastropheLosses() ([]float64, error) {
	if !s.ran {
		return nil, errors.New("risk: study has not run")
	}
	out := make([]float64, len(s.p.CatYLT.Agg))
	copy(out, s.p.CatYLT.Agg)
	return out, nil
}

// Quote is a real-time contract pricing result — the paper's flagship
// stage-2 use case ("A 1 million trial aggregate simulation on a
// typical contract only takes 25 seconds and can therefore support
// real-time pricing", §II).
type Quote struct {
	ContractID uint32  `json:"contract_id"`
	Trials     int     `json:"trials"`
	AAL        float64 `json:"aal"`
	StdDev     float64 `json:"stddev"`
	TVaR99     float64 `json:"tvar99"`
	PML250     float64 `json:"pml250"`
	// Premium is a standard-deviation-loaded technical premium:
	// AAL + 0.35·σ.
	Premium float64 `json:"premium"`
	// Elapsed is the wall-clock simulation time for the quote.
	Elapsed time.Duration `json:"-"`
}

// NumContracts reports how many contracts the study's book holds (the
// configured count, or the default when unset). It is cheap, never
// triggers stage 1, and is safe to call concurrently.
func (s *Study) NumContracts() int {
	if s.cfg.Contracts > 0 {
		return s.cfg.Contracts
	}
	return core.DefaultConfig().NumContracts
}

// ensureModelled initializes the pipeline and lazily runs stage 1 if
// it has not run yet, under quoteMu so concurrent quote paths
// initialize exactly once.
func (s *Study) ensureModelled(ctx context.Context) (*core.Pipeline, error) {
	s.quoteMu.Lock()
	defer s.quoteMu.Unlock()
	p, err := s.pipeline()
	if err != nil {
		return nil, err
	}
	if p.Catalog == nil {
		if err := p.RunStage1(ctx); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// quoteLayout returns the single-contract portfolio view plus the
// cached per-contract flat kernel layout, building and caching it (and
// the loss index it derives from) under quoteMu on first use.
func (s *Study) quoteLayout(p *core.Pipeline, contract int) (*lossindex.Flat, *layers.Portfolio, error) {
	single := &layers.Portfolio{Contracts: []layers.Contract{{
		ID:       p.Portfolio.Contracts[contract].ID,
		ELTIndex: 0,
		Layers:   p.Portfolio.Contracts[contract].Layers,
	}}}
	s.quoteMu.Lock()
	defer s.quoteMu.Unlock()
	if flat := s.quoteFlat[contract]; flat != nil {
		return flat, single, nil
	}
	idx, err := lossindex.Build(p.ELTs[contract:contract+1], single)
	if err != nil {
		return nil, nil, err
	}
	flat, err := lossindex.Flatten(idx, single)
	if err != nil {
		return nil, nil, err
	}
	if s.quoteFlat == nil {
		s.quoteFlat = make(map[int]*lossindex.Flat)
	}
	s.quoteFlat[contract] = flat
	return flat, single, nil
}

// WarmQuotes lazily runs stage 1 if needed and pre-builds every
// contract's quote layout (single-contract loss index + flat kernel
// layout), so the first real-time quote on any contract pays no
// initialization cost. A serving tier calls this once at startup.
// Safe to call concurrently with PriceContract.
func (s *Study) WarmQuotes(ctx context.Context) error {
	p, err := s.ensureModelled(ctx)
	if err != nil {
		return err
	}
	for c := range p.ELTs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, _, err := s.quoteLayout(p, c); err != nil {
			return err
		}
	}
	return nil
}

// quoteTrials returns the first n trials of the quote trial stream
// (Seed+101) as an aggregate-engine source: a zero-copy prefix of the
// resident table, grown first when it is shorter; or, for an n whose
// table would not fit quoteBudget, a fused generator that re-derives
// the trials in bounded batches. Per-trial substreams make all of
// these the same trials, so a quote does not depend on which it was
// given, nor on what was asked before it.
func (s *Study) quoteTrials(ctx context.Context, p *core.Pipeline, n int) (yelt.Source, error) {
	if t := s.quoteTable.Load(); t != nil && t.NumTrials >= n {
		s.quoteHits.Add(1)
		return t.Prefix(n)
	}
	g, err := yelt.NewGenerator(p.Catalog, yelt.Config{NumTrials: n, Workers: s.cfg.Workers}, s.cfg.Seed+101)
	if err != nil {
		return nil, err
	}
	if yelt.ResidentBytes(n, int64(float64(n)*g.MeanOccurrences())) > s.quoteBudget {
		s.quoteStreamed.Add(1)
		return g, nil
	}
	select {
	case s.quoteGrow <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.quoteGrow }()
	t := s.quoteTable.Load()
	if t != nil && t.NumTrials >= n {
		// Grown past n while this quote waited its turn.
		s.quoteHits.Add(1)
		return t.Prefix(n)
	}
	if s.quoteGrowHook != nil {
		s.quoteGrowHook()
	}
	// Publish only a finished table: a growth that fails or is cancelled
	// leaves the published one, and the next quote starts from it.
	if t, err = g.Extend(ctx, t); err != nil {
		return nil, err
	}
	s.quoteTable.Store(t)
	s.quoteGrows.Add(1)
	return t, nil
}

// QuoteTableInfo describes the study's resident quote trial table for
// stats endpoints.
type QuoteTableInfo struct {
	// Trials and Bytes are the published table's length and in-memory
	// size (both 0 before the first quote).
	Trials int   `json:"quote_table_trials"`
	Bytes  int64 `json:"quote_table_bytes"`
	// Hits counts quotes read from the table as published, Grows those
	// that lengthened it first, Streamed those that took the fused
	// generator instead (a trial count beyond the table's byte budget).
	Hits     int64 `json:"quote_table_hits"`
	Grows    int64 `json:"quote_table_grows"`
	Streamed int64 `json:"quote_streamed"`
}

// QuoteTableInfo reports the resident quote trial table and its
// counters. Safe to call concurrently with other methods; it takes no
// lock.
func (s *Study) QuoteTableInfo() QuoteTableInfo {
	info := QuoteTableInfo{
		Hits:     s.quoteHits.Load(),
		Grows:    s.quoteGrows.Load(),
		Streamed: s.quoteStreamed.Load(),
	}
	if t := s.quoteTable.Load(); t != nil {
		info.Trials = t.NumTrials
		info.Bytes = yelt.ResidentBytes(t.NumTrials, int64(t.Len()))
	}
	return info
}

// PriceContract runs a dedicated aggregate simulation for one contract
// (by index) over the given trial count, with secondary uncertainty.
// The trial years are the first `trials` of one stream every quote of
// the study shares, so a quote is a pure function of (study, contract,
// trials). They are read from the study's resident trial table, which
// only the first quote at a new largest trial count pays to lengthen;
// a trial count too large to keep resident re-derives them in bounded
// batches inside the simulation instead.
// Stage 1 must have run (a full Run, or RunModelling); if it has not,
// the first quote runs it lazily. The contract index is validated
// before any lazy initialization, so an invalid request fails in
// microseconds instead of after seconds of simulation.
func (s *Study) PriceContract(ctx context.Context, contract int, trials int) (*Quote, error) {
	if n := s.NumContracts(); contract < 0 || contract >= n {
		return nil, fmt.Errorf("risk: contract %d of %d", contract, n)
	}
	p, err := s.ensureModelled(ctx)
	if err != nil {
		return nil, err
	}
	if trials <= 0 {
		trials = 1_000_000
	}
	start := time.Now()
	src, err := s.quoteTrials(ctx, p, trials)
	if err != nil {
		return nil, err
	}
	flat, single, err := s.quoteLayout(p, contract)
	if err != nil {
		return nil, err
	}
	qin := &aggregate.Input{
		Source:    src,
		ELTs:      p.ELTs[contract : contract+1],
		Portfolio: single,
		Index:     flat.Index(),
		Flat:      flat,
	}
	res, err := (aggregate.Parallel{}).Run(ctx, qin, aggregate.Config{
		Seed: s.cfg.Seed + 103, Sampling: true, Workers: s.cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	// A quote reads two order statistics, the VaR under TVaR99 and
	// PML250: the view selects those ranks and builds no Summary.
	view, err := metrics.NewView(res.Portfolio)
	if err != nil {
		return nil, err
	}
	tvar, err := view.TVaR(0.99)
	if err != nil {
		return nil, err
	}
	pml, err := view.PML(250)
	if err != nil {
		return nil, err
	}
	aal, sd := res.Portfolio.Mean(), res.Portfolio.StdDev()
	return &Quote{
		ContractID: single.Contracts[0].ID,
		Trials:     trials,
		AAL:        aal,
		StdDev:     sd,
		TVaR99:     tvar,
		PML250:     pml,
		Premium:    aal + 0.35*sd,
		Elapsed:    elapsed,
	}, nil
}

// RunModelling executes only stage 1 (catalogue + exposure + ELTs),
// enough to start pricing contracts without a full portfolio study.
func (s *Study) RunModelling(ctx context.Context) error {
	_, err := s.ensureModelled(ctx)
	return err
}

// IntegrateEnterprise reruns stage 3 over the study's catastrophe YLT
// with custom sources — the DFA entry point for users who want their
// own risk models.
func (s *Study) IntegrateEnterprise(ctx context.Context, sources []dfa.Source, rho float64) (Summary, error) {
	if !s.ran {
		return Summary{}, errors.New("risk: study has not run")
	}
	ig := &dfa.Integrator{Sources: sources}
	res, err := ig.Run(ctx, s.p.CatYLT, dfa.Config{Seed: s.cfg.Seed + 31, Rho: rho, Workers: s.cfg.Workers})
	if err != nil {
		return Summary{}, err
	}
	_, entView, err := core.ReportViews(res)
	if err != nil {
		return Summary{}, err
	}
	sum, err := entView.Summary()
	if err != nil {
		return Summary{}, err
	}
	return *sum, nil
}
