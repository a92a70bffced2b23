// Package core orchestrates the paper's three-stage high-performance
// risk analytics pipeline end to end: risk modelling (catastrophe
// models producing ELTs), portfolio risk management (aggregate
// analysis over a pre-simulated YELT producing YLTs), and dynamic
// financial analysis (integrating catastrophe YLTs with the other
// enterprise risks). Each stage is timed and its output data volume
// accounted, which exposes the paper's headline observation: the
// pipeline's data and compute demand *bursts* between stages (§II).
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/aggregate"
	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/dfa"
	"repro/internal/diskstore"
	"repro/internal/elt"
	"repro/internal/faultinject"
	"repro/internal/layers"
	"repro/internal/lossindex"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/internal/warehouse"
	"repro/internal/yelt"
	"repro/internal/ylt"
)

// Config sizes and seeds a pipeline run.
type Config struct {
	Seed uint64
	// Stage 1: catalogue and book shape.
	NumEvents            int
	NumContracts         int
	LocationsPerContract int
	MeanEventsPerYear    float64
	// Stage 2: trial count and engine.
	NumTrials int
	Engine    aggregate.Engine // nil = Parallel
	Sampling  bool
	// Kernel and TrialBlock are forwarded to aggregate.Config, set by no
	// command or public config, and declared only because
	// bench/replica.go copies them; they are deleted together with that
	// file (ROADMAP item 4b).
	Kernel     aggregate.Kernel
	TrialBlock int
	// Streaming fuses YELT generation into the aggregate engines: trial
	// batches are re-derived on demand (yelt.Generator) and the table is
	// never materialized, so NumTrials is bounded by time instead of
	// memory. Results are bit-identical to the materialized path; the
	// stage report then accounts peak-resident bytes instead of the
	// table footprint.
	Streaming bool
	// BatchTrials bounds the per-worker resident trial batch in
	// streaming mode; <= 0 means aggregate.DefaultBatchTrials.
	BatchTrials int
	// Spill (implies Streaming) generates the trial stream once, writes
	// trial-range shards into a diskstore, and runs the engine over the
	// spilled shards — re-scanning from disk instead of re-deriving per
	// pass, the third point on the memory/compute trade. The stage
	// report gains a yelt-spill line (shard bytes written, shard count).
	Spill bool
	// SpillDir roots the spill store; "" uses a fresh temp dir removed
	// when stage 2 finishes, a caller-supplied dir keeps the shards.
	SpillDir string
	// SpillParts is the shard count; <= 0 derives one shard per started
	// aggregate.DefaultSplitTrials trials (aggregate.DefaultSpillParts).
	SpillParts int
	// SpillNodes is the spill store's simulated storage-node count;
	// <= 0 means yelt.DefaultSpillNodes. Shard-affine engines place
	// mappers against these nodes.
	SpillNodes int
	// SpillReplicas writes each spilled shard to this many distinct
	// storage nodes (clamped to SpillNodes; <= 1 means no replication).
	// With r >= 2, stage 2 survives the loss or corruption of any
	// single replica by failing over to a survivor.
	SpillReplicas int
	// Faults is the deterministic fault-injection plan (nil injects
	// nothing), run by aggregate.MapReduce only (CheckFaultEngine):
	// shard-read failures reach its scans of the spill store, node
	// kills and split delays its lanes. Results must remain
	// bit-identical to a fault-free run; only the recovery counters on
	// the stage report change.
	Faults *faultinject.Plan
	// Speculate turns on speculative re-execution of straggling map
	// tasks (first finisher wins, duplicates discarded; results
	// unchanged). Like Faults it needs aggregate.MapReduce.
	Speculate bool
	// SpillAttach runs stage 2 over shards an *earlier process* spilled
	// into SpillDir (required non-empty), re-attached through the spill
	// manifest instead of generated — the aggregate half of the
	// two-process handoff. The trial count comes from the shards; the
	// book is re-derived from Seed, so results are bit-identical to a
	// fused run with the same configuration.
	SpillAttach bool
	// Provision, when non-nil, drives each stage's worker bound from an
	// elasticity policy (internal/cluster) instead of the static
	// Workers value: each stage asks for its exploitable parallelism
	// and runs on what the policy allocates. Stage reports then carry
	// allocated-vs-busy processor-time — the paper's §II elasticity
	// story measured in the real pipeline, which is what E7 tabulates.
	Provision cluster.Policy
	// CubeDims, when non-empty, materializes the warehouse data cube
	// over the stage-2 per-contract YLTs as a fourth stage line
	// ("warehouse"): the engine feeds the incremental warehouse.Builder
	// live through aggregate.Config.BatchSink — Sequential and Parallel
	// as trial batches finish, MapReduce as map tasks commit, each
	// trial exactly once — so no engine replays its tables after the
	// run, whether or not the book declares reinstatement terms. The
	// cube lands on Pipeline.Cube with a per-contract registry for delta
	// updates. Contract attributes are the deterministic synthetic ones
	// of warehouse.DefaultAttrs.
	CubeDims []string
	// Stage 3.
	Sources []dfa.Source // nil = StandardSources scaled to the cat AAL
	Rho     float64      // copula equicorrelation
	// Workers bounds every parallel phase; <= 0 means GOMAXPROCS.
	Workers int
	// TwoLayers adds working layers to each program.
	TwoLayers bool
	// Reinstatements writes layers.StandardReinstatements on the book's
	// limited layers after stage 1 builds it, so every engine runs it
	// through the stateful year-state walk and AggResult carries the
	// premium column.
	Reinstatements bool
}

// CheckFaultEngine refuses a fault plan or speculation under any engine
// but aggregate.MapReduce, the one engine with a failure model: under
// another, an injected read fault is a plain error, not a recovery, and
// speculation has nothing to re-execute. RunStage2 calls it first;
// a command calls it to refuse its flags before it runs.
func (c Config) CheckFaultEngine() error {
	if c.Faults == nil && !c.Speculate {
		return nil
	}
	engine := c.Engine
	if engine == nil {
		engine = aggregate.Parallel{}
	}
	if _, ok := engine.(aggregate.MapReduce); ok {
		return nil
	}
	return fmt.Errorf("core: fault injection and speculation need the mapreduce engine, the one that recovers from faults; engine %s has no failure model", engine.Name())
}

// CheckSpillOnly refuses a fault plan or speculation on the spill half
// of the two-process handoff: the spill only writes shards, and faults
// and speculation act on the MapReduce run that reads them, so they
// belong to the -mode aggregate process. SpillStage2 calls it first; a
// command calls it to refuse its flags before stage 1 runs.
func (c Config) CheckSpillOnly() error {
	if c.Faults == nil && !c.Speculate {
		return nil
	}
	return errors.New("core: fault injection and speculation act on the run that aggregates the spilled shards (-mode aggregate), not on the spill that writes them")
}

// DefaultConfig returns a laptop-scale full pipeline run.
func DefaultConfig() Config {
	return Config{
		Seed:                 1,
		NumEvents:            10_000,
		NumContracts:         16,
		LocationsPerContract: 300,
		MeanEventsPerYear:    10,
		NumTrials:            100_000,
		Rho:                  0.25,
		TwoLayers:            true,
	}
}

// StageReport records one stage's cost and output volume.
type StageReport struct {
	Name     string
	Duration time.Duration
	// OutputBytes is the serialized size of the artifacts the stage
	// hands to the next stage — the "burst of data" measurement.
	OutputBytes int64
	// Items counts the stage's principal outputs (ELT records, YLT
	// trials, ...).
	Items int64
	// Workers is the processor count the stage ran under — provisioned
	// by Config.Provision when set, the static Workers bound otherwise.
	Workers int
	// AllocatedProcSecs is workers × duration: the processor-time
	// billed for the stage. BusyProcSecs is summed task wall time —
	// the map tasks' where the engine measures them (MapReduce),
	// min(demand, workers) × duration otherwise. It is not processor
	// time: with more workers than GOMAXPROCS the tasks wait for a core
	// while their clocks run, and the sum can exceed cores × duration.
	// The gap between the two is what elastic provisioning reclaims.
	AllocatedProcSecs float64
	BusyProcSecs      float64
	// Faults carries the stage's fault-recovery counters (populated by
	// the MapReduce engine; zero for fault-free runs and other
	// engines).
	Faults aggregate.FaultCounters
}

// Report is the output of a full pipeline run.
type Report struct {
	Stages      []StageReport
	Catastrophe *metrics.Summary
	Enterprise  *metrics.Summary
}

// Pipeline holds the artifacts as stages execute. Create with New,
// then either call Run or drive stages individually.
type Pipeline struct {
	Cfg Config

	Catalog   *catalog.Catalog
	ELTs      []*elt.Table
	Portfolio *layers.Portfolio
	// Index is the pre-joined event-major loss index over (ELTs,
	// Portfolio), built once at the end of stage 1 and shared by every
	// stage-2 engine run against this pipeline's book.
	Index *lossindex.Index
	// Flat is the flat SoA trial-kernel layout derived from Index —
	// built alongside it at the stage-1 boundary (both are pure
	// functions of the ELTs and portfolio) and shared read-only by
	// every stage-2 run.
	Flat      *lossindex.Flat
	CatYLT    *ylt.Table
	AggResult *aggregate.Result
	// Cube is the materialized warehouse cube when Cfg.CubeDims is set
	// (nil otherwise); its registry lets contracts be re-priced in
	// place via Cube.Replace.
	Cube      *warehouse.Cube
	DFAResult *dfa.Result

	Stages []StageReport
}

// New returns a pipeline for cfg with defaults filled in.
func New(cfg Config) *Pipeline {
	def := DefaultConfig()
	if cfg.NumEvents <= 0 {
		cfg.NumEvents = def.NumEvents
	}
	if cfg.NumContracts <= 0 {
		cfg.NumContracts = def.NumContracts
	}
	if cfg.LocationsPerContract <= 0 {
		cfg.LocationsPerContract = def.LocationsPerContract
	}
	if cfg.MeanEventsPerYear <= 0 {
		cfg.MeanEventsPerYear = def.MeanEventsPerYear
	}
	if cfg.NumTrials <= 0 {
		cfg.NumTrials = def.NumTrials
	}
	if cfg.Engine == nil {
		cfg.Engine = aggregate.Parallel{}
	}
	return &Pipeline{Cfg: cfg}
}

// setStage records rep in p.Stages, replacing any earlier report with
// the same name. Stage re-runs — engine or kernel sweeps calling
// RunStage2 repeatedly, a full Run after a quote path already
// triggered stage 1 — refresh their line instead of appending
// duplicates, so p.Stages always holds at most one line per stage.
func (p *Pipeline) setStage(rep StageReport) {
	for i := range p.Stages {
		if p.Stages[i].Name == rep.Name {
			p.Stages[i] = rep
			return
		}
	}
	p.Stages = append(p.Stages, rep)
}

// dropStage removes the named stage line, if present.
func (p *Pipeline) dropStage(name string) {
	for i := range p.Stages {
		if p.Stages[i].Name == name {
			p.Stages = append(p.Stages[:i], p.Stages[i+1:]...)
			return
		}
	}
}

// provisioned resolves a stage's worker bound: the elasticity policy
// when set (asked with the stage's exploitable parallelism), else the
// static Workers bound, else GOMAXPROCS. Always >= 1.
func (p *Pipeline) provisioned(demand int) int {
	if p.Cfg.Provision != nil {
		if w := p.Cfg.Provision.Provision(demand); w >= 1 {
			return w
		}
		return 1
	}
	if p.Cfg.Workers > 0 {
		return p.Cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// account fills a stage report's processor-time columns. busySecs <= 0
// falls back to min(workers, demand) × duration — a stage that doesn't
// measure per-task time is assumed busy up to its demand ceiling.
func account(rep *StageReport, workers, demand int, busySecs float64) {
	rep.Workers = workers
	rep.AllocatedProcSecs = float64(workers) * rep.Duration.Seconds()
	if busySecs <= 0 {
		busySecs = float64(min(workers, demand)) * rep.Duration.Seconds()
	}
	rep.BusyProcSecs = busySecs
}

// stage2Demand is stage 2's exploitable parallelism: one task per
// mapper split under default sizing (at least one).
func stage2Demand(numTrials int) int {
	d := (numTrials + aggregate.DefaultSplitTrials - 1) / aggregate.DefaultSplitTrials
	if d < 1 {
		d = 1
	}
	return d
}

// RunStage1 executes risk modelling: catalogue generation, synthetic
// exposure, and the catastrophe-model engine producing one ELT per
// contract — the book synth.Build defines, so the pipeline, the tests
// and the benchmark price the same one — then the stage accounting and
// the loss-index build. It is idempotent: the artifacts are pure
// functions of Cfg, so once they exist a second call (e.g. Run after a
// quote path already triggered stage 1) returns immediately instead of
// regenerating identical data.
func (p *Pipeline) RunStage1(ctx context.Context) error {
	if p.Catalog != nil && p.Index != nil {
		return nil
	}
	start := time.Now()
	workers := p.provisioned(p.Cfg.NumContracts)
	book, err := synth.Build(ctx, synth.Params{
		Seed:                 p.Cfg.Seed,
		NumEvents:            p.Cfg.NumEvents,
		NumContracts:         p.Cfg.NumContracts,
		LocationsPerContract: p.Cfg.LocationsPerContract,
		NumTrials:            p.Cfg.NumTrials,
		MeanEventsPerYear:    p.Cfg.MeanEventsPerYear,
		TwoLayers:            p.Cfg.TwoLayers,
		Workers:              workers,
		SkipYELT:             true, // stage 2 decides how the trials are held
	})
	if err != nil {
		return fmt.Errorf("core: stage 1: %w", err)
	}
	p.Catalog, p.ELTs, p.Portfolio = book.Catalog, book.ELTs, book.Portfolio
	if p.Cfg.Reinstatements {
		layers.StandardReinstatements(p.Portfolio)
	}
	var bytes, items int64
	for _, tbl := range p.ELTs {
		bytes += tbl.SizeBytes()
		items += int64(tbl.Len())
	}
	rep := StageReport{
		Name: "risk-modelling", Duration: time.Since(start),
		OutputBytes: bytes, Items: items,
	}
	account(&rep, workers, p.Cfg.NumContracts, 0)
	p.setStage(rep)

	// Pre-join the book's ELTs into the event-major loss index here, at
	// the stage boundary: the index is stage-1 output (a function of the
	// ELTs and the portfolio only), and stage-2 re-runs — engine sweeps,
	// trial-count sweeps — all reuse it without rebuilding. The flat
	// SoA kernel layout is derived in the same breath and reported on
	// the same stage line (its build time and footprint are part of the
	// pre-join cost the trial loop amortizes away).
	idxStart := time.Now()
	idx, err := lossindex.Build(p.ELTs, p.Portfolio)
	if err != nil {
		return fmt.Errorf("core: stage 1 loss index: %w", err)
	}
	fx, err := lossindex.Flatten(idx, p.Portfolio)
	if err != nil {
		return fmt.Errorf("core: stage 1 flat kernel layout: %w", err)
	}
	p.Index = idx
	p.Flat = fx
	p.setStage(StageReport{
		Name: "loss-index", Duration: time.Since(idxStart),
		OutputBytes: idx.SizeBytes() + fx.SizeBytes(), Items: int64(idx.NumEntries()),
	})
	return nil
}

// RunStage2 executes portfolio risk management: YELT pre-simulation
// and aggregate analysis producing the catastrophe YLT. In streaming
// mode the two are fused — trial batches are derived on demand and the
// YELT is never materialized, so the stage report accounts the
// peak-resident trial bytes (the memory envelope) where the
// materialized path accounts the full table. Spill mode generates the
// stream once into diskstore shards and runs the engine over the
// spilled partitions (re-scan instead of re-derive), reported as a
// separate yelt-spill stage line.
func (p *Pipeline) RunStage2(ctx context.Context) error {
	if p.Catalog == nil {
		return errors.New("core: stage 2 requires stage 1 artifacts")
	}
	if err := p.Cfg.CheckFaultEngine(); err != nil {
		return err
	}
	if !p.Cfg.Spill {
		// A non-spill re-run supersedes any earlier spilled run; its
		// stale shard line no longer describes this pipeline's stage 2.
		p.dropStage("yelt-spill")
	}
	start := time.Now()
	in := &aggregate.Input{ELTs: p.ELTs, Portfolio: p.Portfolio, Index: p.Index, Flat: p.Flat}
	var y *yelt.Table // the materialized trial table, garbage once stage 2 returns
	var gen *yelt.Generator
	var ds *yelt.DiskSource
	// The worker bound is resolved before the trials are generated, so
	// generation runs on the processors the stage is billed for.
	demand := stage2Demand(p.Cfg.NumTrials)
	workers := p.provisioned(demand)
	switch {
	case p.Cfg.SpillAttach:
		d, err := p.AttachSpill()
		if err != nil {
			return err
		}
		// The shards fix the trial count: the spilling process decided
		// it, this process just scans.
		p.Cfg.NumTrials = d.TrialCount()
		demand = stage2Demand(p.Cfg.NumTrials)
		workers = p.provisioned(demand)
		ds = d
		in.Source = ds
		attachBytes, err := ds.SizeBytes()
		if err != nil {
			return fmt.Errorf("core: stage 2 attach size: %w", err)
		}
		p.setStage(StageReport{
			Name: "yelt-attach", Duration: time.Since(start),
			OutputBytes: attachBytes, Items: int64(ds.Shards()),
		})
		start = time.Now()
	case p.Cfg.Streaming || p.Cfg.Spill:
		ycfg := yelt.Config{NumTrials: p.Cfg.NumTrials, Workers: workers}
		g, err := yelt.NewGenerator(p.Catalog, ycfg, p.Cfg.Seed+7)
		if err != nil {
			return fmt.Errorf("core: stage 2 yelt: %w", err)
		}
		gen = g
		in.Source = gen
		if p.Cfg.Spill {
			d, cleanup, err := p.spillYELT(ctx, gen)
			if err != nil {
				return err
			}
			defer cleanup()
			ds = d
			in.Source = ds
			// The spill interval is its own stage line; restart the
			// portfolio-risk clock so the two lines sum to wall time
			// instead of double-counting the write.
			start = time.Now()
		}
	default:
		ycfg := yelt.Config{NumTrials: p.Cfg.NumTrials, Workers: workers}
		var err error
		if y, err = yelt.Generate(ctx, p.Catalog, ycfg, p.Cfg.Seed+7); err != nil {
			return fmt.Errorf("core: stage 2 yelt: %w", err)
		}
		in.YELT = y
	}

	// The fault plan and speculation flag ride into the one engine with
	// a failure model (CheckFaultEngine refused them for any other).
	// MapReduce.Run installs the plan's read faults on the spill store
	// for its own run and removes them after.
	engine := p.Cfg.Engine
	if mr, ok := engine.(aggregate.MapReduce); ok && (p.Cfg.Faults != nil || p.Cfg.Speculate) {
		if mr.Faults == nil {
			mr.Faults = p.Cfg.Faults
		}
		mr.Speculate = mr.Speculate || p.Cfg.Speculate
		engine = mr
	}
	aggCfg := aggregate.Config{
		Seed:        p.Cfg.Seed + 13,
		Sampling:    p.Cfg.Sampling,
		Workers:     workers,
		BatchTrials: p.Cfg.BatchTrials,
		Kernel:      p.Cfg.Kernel,
		TrialBlock:  p.Cfg.TrialBlock,
	}
	// The cube builder is created here, after the source switch: a
	// spill attach fixes NumTrials from the shards, and the builder's
	// cell columns are sized by the final trial count.
	var builder *warehouse.Builder
	if len(p.Cfg.CubeDims) > 0 {
		attrs := warehouse.DefaultAttrs(p.Cfg.NumContracts)
		b, err := warehouse.NewBuilder(p.Cfg.CubeDims, attrs, p.Cfg.NumTrials, workers)
		if err != nil {
			return fmt.Errorf("core: stage 2 warehouse: %w", err)
		}
		builder = b
		aggCfg.BatchSink = func(lo int, agg, occ [][]float64) {
			// Errors are latched in the builder and surface from
			// Finalize with full context.
			_ = b.IngestBatch(lo, agg, occ)
		}
	}
	res, err := engine.Run(ctx, in, aggCfg)
	if err != nil {
		return fmt.Errorf("core: stage 2 aggregate: %w", err)
	}
	p.AggResult = res
	p.CatYLT = res.Portfolio
	if builder != nil {
		if err := p.buildCube(ctx, builder, res, workers); err != nil {
			return err
		}
	} else {
		p.Cube = nil
		p.dropStage("warehouse")
	}
	rep := StageReport{Name: "portfolio-risk", Duration: time.Since(start)}
	switch {
	case ds != nil:
		// Spilled: the engine re-scans shards; Items counts occurrences
		// read back from disk (each re-scanning pass counts).
		rep.OutputBytes = res.PeakResidentBytes + res.Portfolio.SizeBytes()
		rep.Items = ds.Scanned()
	case p.Cfg.Streaming:
		rep.OutputBytes = res.PeakResidentBytes + res.Portfolio.SizeBytes()
		// Items counts occurrences *streamed*: for the single-pass
		// engines used here it equals the occurrence count of the table
		// the run avoided; an engine that re-scans the source counts
		// each pass.
		rep.Items = gen.Streamed()
	default:
		rep.OutputBytes = y.SizeBytes() + res.Portfolio.SizeBytes()
		rep.Items = int64(y.Len())
	}
	rep.Faults = res.FaultCounters
	account(&rep, workers, demand, res.BusySeconds)
	p.setStage(rep)
	return nil
}

// buildCube finalizes the warehouse cube the engine fed through the
// sink and records the "warehouse" stage line. The stage's duration
// sums the cumulative fold busy-time and the finalize (summarize) wall
// time; OutputBytes is the cube's footprint, its per-contract registry.
func (p *Pipeline) buildCube(ctx context.Context, builder *warehouse.Builder, res *aggregate.Result, workers int) error {
	finStart := time.Now()
	cube, err := builder.Finalize(ctx, res.PerContract)
	if err != nil {
		return fmt.Errorf("core: stage 2 warehouse: %w", err)
	}
	p.Cube = cube
	rep := StageReport{
		Name:        "warehouse",
		Duration:    builder.FoldDuration() + time.Since(finStart),
		OutputBytes: cube.SizeBytes(),
		Items:       int64(cube.Cells()),
	}
	account(&rep, workers, cube.Cells(), 0)
	p.setStage(rep)
	return nil
}

// spillYELT generates the trial stream once and writes it as shards
// under Cfg.SpillDir (a fresh temp dir when empty; cleanup removes it
// — a no-op for caller-supplied dirs, whose shards outlive the run).
// The write runs on the workers provisioned for its shard count and is
// recorded, with their processor-time columns, as the yelt-spill stage
// line.
func (p *Pipeline) spillYELT(ctx context.Context, gen *yelt.Generator) (ds *yelt.DiskSource, cleanup func(), err error) {
	spillStart := time.Now()
	dir := p.Cfg.SpillDir
	cleanup = func() {}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "riskspill-*")
		if err != nil {
			return nil, nil, fmt.Errorf("core: stage 2 spill dir: %w", err)
		}
		cleanup = func() { os.RemoveAll(tmp) } // shards only needed during the engine run
		dir = tmp
	}
	parts := p.Cfg.SpillParts
	if parts <= 0 {
		parts = aggregate.DefaultSpillParts(p.Cfg.NumTrials)
	}
	// Each shard is one spill task: the shard count is the write's demand.
	workers := p.provisioned(parts)
	d, err := yelt.SpillToDir(ctx, gen, dir, p.Cfg.SpillNodes, parts, p.Cfg.SpillReplicas, workers)
	if err != nil {
		cleanup()
		return nil, nil, fmt.Errorf("core: stage 2 spill: %w", err)
	}
	spillBytes, err := d.SizeBytes()
	if err != nil {
		cleanup()
		return nil, nil, fmt.Errorf("core: stage 2 spill size: %w", err)
	}
	rep := StageReport{
		Name: "yelt-spill", Duration: time.Since(spillStart),
		OutputBytes: spillBytes, Items: int64(d.Shards()),
	}
	account(&rep, workers, parts, 0)
	p.setStage(rep)
	return d, cleanup, nil
}

// SpillStage2 is the spill half of the two-process handoff: stage 1
// re-derives the book, the trial stream is generated once and spilled
// as shards + manifest into Cfg.SpillDir, and the process stops there
// — no aggregation. A separate process with Cfg.SpillAttach set picks
// the shards up via the manifest and runs stage 2 over them. Requires
// SpillDir (the shards must outlive this process) and refuses a fault
// plan or speculation (CheckSpillOnly).
func (p *Pipeline) SpillStage2(ctx context.Context) error {
	if p.Cfg.SpillDir == "" {
		return errors.New("core: SpillStage2 requires SpillDir — shards must outlive the process")
	}
	if err := p.Cfg.CheckSpillOnly(); err != nil {
		return err
	}
	if err := p.RunStage1(ctx); err != nil {
		return err
	}
	ycfg := yelt.Config{NumTrials: p.Cfg.NumTrials, Workers: p.Cfg.Workers}
	gen, err := yelt.NewGenerator(p.Catalog, ycfg, p.Cfg.Seed+7)
	if err != nil {
		return fmt.Errorf("core: stage 2 yelt: %w", err)
	}
	_, _, err = p.spillYELT(ctx, gen)
	return err
}

// AttachSpill re-attaches to the shards an earlier process spilled
// into Cfg.SpillDir, through the spill manifest (yelt.OpenDiskSource
// verifies every shard against it, naming any culprit).
func (p *Pipeline) AttachSpill() (*yelt.DiskSource, error) {
	if p.Cfg.SpillDir == "" {
		return nil, errors.New("core: SpillAttach requires SpillDir")
	}
	store, err := diskstore.Open(p.Cfg.SpillDir)
	if err != nil {
		return nil, fmt.Errorf("core: attaching spill store: %w", err)
	}
	ds, err := yelt.OpenDiskSource(store, "yelt")
	if err != nil {
		return nil, fmt.Errorf("core: attaching spilled yelt: %w", err)
	}
	return ds, nil
}

// RunStage3 executes dynamic financial analysis over the catastrophe
// YLT.
func (p *Pipeline) RunStage3(ctx context.Context) error {
	if p.CatYLT == nil {
		return errors.New("core: stage 3 requires stage 2 artifacts")
	}
	start := time.Now()
	sources := p.Cfg.Sources
	if sources == nil {
		sources = dfa.StandardSources(p.CatYLT.Mean())
	}
	// One integration task per enterprise source plus the combine pass.
	demand := len(sources) + 1
	workers := p.provisioned(demand)
	ig := &dfa.Integrator{Sources: sources}
	res, err := ig.Run(ctx, p.CatYLT, dfa.Config{
		Seed:    p.Cfg.Seed + 29,
		Workers: workers,
		Rho:     p.Cfg.Rho,
	})
	if err != nil {
		return fmt.Errorf("core: stage 3: %w", err)
	}
	p.DFAResult = res
	rep := StageReport{
		Name: "dfa", Duration: time.Since(start),
		OutputBytes: res.TotalBytes,
		Items:       int64(res.Enterprise.NumTrials()) * int64(len(sources)+2),
	}
	account(&rep, workers, demand, 0)
	p.setStage(rep)
	return nil
}

// Run executes all three stages and assembles the report.
func (p *Pipeline) Run(ctx context.Context) (*Report, error) {
	if err := p.RunStage1(ctx); err != nil {
		return nil, err
	}
	if err := p.RunStage2(ctx); err != nil {
		return nil, err
	}
	if err := p.RunStage3(ctx); err != nil {
		return nil, err
	}
	catSum, entSum, err := passReports(p.DFAResult)
	if err != nil {
		return nil, err
	}
	// The report gets its own stage lines: setStage rewrites p.Stages in
	// place when a stage runs again.
	return &Report{Stages: slices.Clone(p.Stages), Catastrophe: catSum, Enterprise: entSum}, nil
}

// passReports computes a stage-3 result's two reports side by side:
// each selects in its own aggregate column, and the occurrence curve
// they share (ReportViews) selects once — a View is safe for concurrent
// use, and a curve's second query of the same ranks waits for the first
// and reads them.
func passReports(res *dfa.Result) (cat, enterprise *metrics.Summary, err error) {
	catView, entView, err := ReportViews(res)
	if err != nil {
		return nil, nil, err
	}
	var catErr error
	catDone := make(chan struct{})
	go func() {
		defer close(catDone)
		cat, catErr = catView.Summary()
	}()
	enterprise, err = entView.Summary()
	<-catDone
	if catErr != nil {
		return nil, nil, fmt.Errorf("core: cat summary: %w", catErr)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: enterprise summary: %w", err)
	}
	return cat, enterprise, nil
}

// ReportViews builds the two reports' views from a stage-3 result. Each
// selects its order statistics in place in the tables' own columns,
// copying none, and the enterprise view shares the catastrophe view's
// occurrence curve: stage 3's enterprise table holds the catastrophe
// table's OccMax slice, so the second report reads the order statistics
// the first selected there.
func ReportViews(res *dfa.Result) (cat, enterprise *metrics.View, err error) {
	if cat, err = metrics.NewView(res.Cat); err != nil {
		return nil, nil, fmt.Errorf("core: cat view: %w", err)
	}
	if enterprise, err = metrics.NewViewSorted(res.Enterprise, cat); err != nil {
		return nil, nil, fmt.Errorf("core: enterprise view: %w", err)
	}
	return cat, enterprise, nil
}
