// Package aggregate implements stage 2's core computation — aggregate
// analysis: "An additional Monte Carlo simulation ... is necessary for
// generating an alternate view of which events occur and in which
// order they occur within a contractual year" (§II). For every
// pre-simulated trial year in the YELT, the engine walks the year's
// event occurrences in date order, looks up each contract's loss in
// its ELT, applies per-occurrence and annual-aggregate reinsurance
// terms, and emits the trial's loss into a Year-Loss Table.
//
// The host engines share one trial kernel and one trial-range driver:
//
//   - Sequential: one worker, the paper's CPU baseline.
//   - Parallel: trials partitioned across goroutines (the native
//     realization of the paper's data-parallel GPU engine; experiment
//     E1's measured speedup).
//   - MapReduce: the same driver once per map split, with retries,
//     speculation and shard-affine placement around it, each split
//     committed into the result once (mapreduce.go).
//
// Chunked runs the ground-up portfolio aggregation on the simulated
// many-core device (internal/gpusim), staging ELT chunks through shared
// memory — the paper's "chunking" memory strategy (experiment E4's
// modeled-cycle ablation).
//
// Every engine consumes the pre-joined event-major loss index
// (internal/lossindex) instead of binary-searching per-contract ELTs
// per occurrence — the paper's "scanned over rather than randomly
// accessed" layout. The trial kernel (blocked.go) scans lossindex.Flat,
// the index flattened into SoA columns: a block of trial years per pass
// over flattened layer-term columns, with per-occurrence span
// resolution hoisted into an event-major pre-pass and — in expected
// mode — occurrence recoveries pre-applied at build time so the inner
// loop is pure gather-adds. The layout is built once per input (or
// supplied by the orchestration layer, which builds it in stage 1) and
// shared read-only by all workers. LegacyLookup (legacy.go) is the
// oracle: the binary-search-per-occurrence loop over the raw ELTs,
// which shares no layout and no loop with the kernel and which every
// equivalence suite compares against.
//
// All engines are bit-deterministic for a given (input, seed) and
// agree with each other; determinism comes from per-trial RNG streams,
// never from scheduling.
package aggregate

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/elt"
	"repro/internal/layers"
	"repro/internal/lossindex"
	"repro/internal/stream"
	"repro/internal/yelt"
	"repro/internal/ylt"
)

// Config controls a run.
type Config struct {
	// Seed drives secondary-uncertainty sampling. Each trial uses the
	// substream rng.NewStream(Seed, trial), so results are independent
	// of engine choice and worker count.
	Seed uint64
	// Sampling enables beta-distributed secondary uncertainty around
	// each ELT record's mean loss. When false the mean loss is used —
	// the deterministic "expected mode" also used by the device
	// engine.
	Sampling bool
	// Workers bounds parallel engines; <= 0 means GOMAXPROCS.
	Workers int
	// PerContract requests per-contract YLTs in addition to the
	// portfolio table.
	PerContract bool
	// BatchTrials bounds how many trials a worker materializes at once
	// when the input is consumed through a streaming Source; <= 0 means
	// DefaultBatchTrials. Results are bit-independent of the batch size
	// (each trial draws from its own stream); only peak memory and the
	// cancellation-poll granularity change.
	BatchTrials int
	// Kernel has one value and is read by nothing. It is declared only
	// because bench/replica.go sets it, and is deleted together with
	// that file (ROADMAP item 4b).
	Kernel Kernel
	// TrialBlock bounds how many trial years the kernel processes per
	// pass; <= 0 means DefaultTrialBlock. Results are bit-independent of
	// it — blocking never reorders an addition within a trial — and the
	// block-size suite varies it to prove that. No command or public
	// config sets it; it becomes a constant together with bench/replica.go
	// (ROADMAP item 4b).
	TrialBlock int
	// BatchSink, when set, receives each trial batch's per-contract
	// results as the engine completes it: agg[ci][j] and occ[ci][j]
	// are contract ci's annual aggregate recovery and largest
	// single-occurrence recovery for global trial lo+j. The rows are
	// views into the run's result tables — read-only for the sink,
	// valid beyond the call. Calls may arrive from concurrent workers
	// but always cover disjoint trial ranges, each exactly once.
	//
	// Setting a sink implies per-contract result tables, as PerContract
	// does. Every host engine feeds it: Sequential and Parallel per
	// batch, MapReduce per committed split — a map task's segment
	// reaches the sink once, when the winning attempt commits it, so
	// retries and speculative backups never replay a range. The
	// reinstatements and device engines produce no per-contract tables
	// and refuse a sink as they refuse PerContract.
	BatchSink func(lo int, agg, occ [][]float64)
}

// perContract reports whether the run must produce per-contract
// tables: asked for directly, or implied by a sink.
func (cfg Config) perContract() bool {
	return cfg.PerContract || cfg.BatchSink != nil
}

// Kernel is the trial-kernel selector's remaining declaration; see
// Config.Kernel.
type Kernel int

// KernelBlocked is the trial kernel of blocked.go, the only one.
const KernelBlocked Kernel = 0

// DefaultBatchTrials is the default trial-batch granularity: large
// enough that per-batch dispatch vanishes against the trial kernel,
// small enough that a worker's resident batch stays in the hundreds of
// kilobytes on typical books.
const DefaultBatchTrials = 8192

func (cfg Config) batchTrials() int {
	if cfg.BatchTrials > 0 {
		return cfg.BatchTrials
	}
	return DefaultBatchTrials
}

// Input is one aggregate-analysis problem: the pre-simulated years,
// the per-contract ELTs, and the book of contracts with their layers.
type Input struct {
	// YELT is the materialized trial table. Leave nil and set Source to
	// run stage 2 in streaming mode, where trial batches are derived on
	// demand and the table is never resident. When both are set, Source
	// wins.
	YELT *yelt.Table
	// Source streams trial batches (yelt.Generator, or any other
	// yelt.Source). Engines consume it in Config.BatchTrials-bounded
	// batches, so memory is bounded by workers × batch, not by trial
	// count. Results are bit-identical to running over the equivalent
	// materialized table.
	Source    yelt.Source
	ELTs      []*elt.Table
	Portfolio *layers.Portfolio
	// Index is the pre-joined event-major loss index over (ELTs,
	// Portfolio). Leave nil to have the engine build it on first use;
	// orchestration layers that re-run engines over the same book
	// should build it once (lossindex.Build) and share it.
	//
	// Because engines memoize a lazily built index here, an Input with
	// a nil Index must not be shared by concurrent Run calls; pre-set
	// Index (as the pipeline does) to share one Input across
	// goroutines.
	Index *lossindex.Index
	// Flat is the flat SoA kernel layout derived from (Index,
	// Portfolio) — pre-applied expected-mode recoveries, flattened
	// layer terms, precomputed sampling plans: what the trial kernel
	// scans. Leave nil to have the engine build it on first use; the
	// same sharing caveat as Index applies (pre-set both to share one
	// Input across goroutines, as the pipeline does).
	Flat *lossindex.Flat
}

// EnsureIndex returns the input's loss index, building and memoizing
// it when absent (a write to in.Index — see the field's concurrency
// note). Call before spawning workers; the returned index is
// immutable and safe for concurrent readers.
func (in *Input) EnsureIndex() (*lossindex.Index, error) {
	if in.Index != nil {
		return in.Index, nil
	}
	ix, err := lossindex.Build(in.ELTs, in.Portfolio)
	if err != nil {
		return nil, fmt.Errorf("aggregate: building loss index: %w", err)
	}
	in.Index = ix
	return ix, nil
}

// EnsureFlat returns the input's flat kernel layout, building and
// memoizing it (and the index it derives from) when absent. Call
// before spawning workers; the returned layout is immutable and safe
// for concurrent readers.
func (in *Input) EnsureFlat() (*lossindex.Flat, error) {
	if in.Flat != nil {
		return in.Flat, nil
	}
	ix, err := in.EnsureIndex()
	if err != nil {
		return nil, err
	}
	fx, err := lossindex.Flatten(ix, in.Portfolio)
	if err != nil {
		return nil, fmt.Errorf("aggregate: flattening loss index: %w", err)
	}
	in.Flat = fx
	return fx, nil
}

// src returns the trial source: Source when set, else the materialized
// YELT (which itself implements yelt.Source). Call after Validate.
func (in *Input) src() yelt.Source {
	if in.Source != nil {
		return in.Source
	}
	return in.YELT
}

// streaming reports whether trials are consumed through a
// non-materialized source, i.e. whether peak-resident accounting (the
// batch high-water mark) applies instead of the table footprint.
func (in *Input) streaming() bool {
	if in.Source == nil {
		return false
	}
	_, materialized := in.Source.(*yelt.Table)
	return !materialized
}

// materializedBytes returns the resident footprint of a
// fully-materialized input (0 if the input is streaming).
func (in *Input) materializedBytes() int64 {
	if t, ok := in.Source.(*yelt.Table); ok {
		return t.SizeBytes()
	}
	if in.Source == nil && in.YELT != nil {
		return in.YELT.SizeBytes()
	}
	return 0
}

// Validate checks the input's internal consistency.
func (in *Input) Validate() error {
	if in.Source == nil && in.YELT == nil {
		return errors.New("aggregate: missing YELT or Source")
	}
	if in.src().TrialCount() == 0 {
		return errors.New("aggregate: trial source is empty")
	}
	if len(in.ELTs) == 0 {
		return errors.New("aggregate: no ELTs")
	}
	if in.Portfolio == nil {
		return errors.New("aggregate: missing portfolio")
	}
	if err := in.Portfolio.Validate(); err != nil {
		return err
	}
	for _, c := range in.Portfolio.Contracts {
		if c.ELTIndex < 0 || c.ELTIndex >= len(in.ELTs) {
			return fmt.Errorf("aggregate: contract %d references ELT %d of %d", c.ID, c.ELTIndex, len(in.ELTs))
		}
	}
	if in.Index != nil && in.Index.NumContracts() != len(in.Portfolio.Contracts) {
		return fmt.Errorf("aggregate: index built for %d contracts, portfolio has %d",
			in.Index.NumContracts(), len(in.Portfolio.Contracts))
	}
	if in.Flat != nil && in.Flat.NumContracts() != len(in.Portfolio.Contracts) {
		return fmt.Errorf("aggregate: flat layout built for %d contracts, portfolio has %d",
			in.Flat.NumContracts(), len(in.Portfolio.Contracts))
	}
	return nil
}

// Result is the output of a run.
type Result struct {
	// Portfolio is the whole-book YLT: aggregate annual recovery and
	// largest per-occurrence recovery per trial.
	Portfolio *ylt.Table
	// PerContract, when requested, holds one YLT per contract in
	// portfolio order.
	PerContract []*ylt.Table
	// PeakResidentBytes is the maximum bytes of trial (YELT) data
	// resident at any instant during the run: the full table footprint
	// for materialized inputs, the concurrent-batch high-water mark for
	// streaming sources. It is the stage-2 memory-envelope measurement.
	PeakResidentBytes int64
	// LocalBytes/RemoteBytes split the spilled-shard bytes scanned by a
	// MapReduce run by placement: a split scanned by a mapper homed on
	// the shard's owning node counts local, anything else — a steal for
	// load balance, or blind placement — counts remote. Zero for
	// engines and sources without shard placement. This is the
	// data-motion measurement E16 reports.
	LocalBytes  int64
	RemoteBytes int64
	// BusySeconds is the summed wall-clock time of the run's map tasks
	// (MapReduce only) — the "busy" side of the allocated-vs-busy
	// processor-time elasticity report.
	BusySeconds float64
	// FaultCounters are the failure-model events of a MapReduce run
	// (zero elsewhere).
	FaultCounters
}

// FaultCounters accounts how much chaos a run absorbed: failed map
// attempts and the retries that recovered them, speculative backups
// launched and won, shard reads that failed over to another replica,
// and lane workers retired by a node fault. They are observability only
// — any run that returns a Result at all is bit-identical to the
// fault-free one.
type FaultCounters struct {
	MapFailures    int64
	MapRetries     int64
	SpecLaunched   int64
	SpecWins       int64
	ShardFailovers int64
	WorkersLost    int64
}

// Any reports whether any fault-model event occurred.
func (f FaultCounters) Any() bool {
	return f.MapFailures+f.MapRetries+f.SpecLaunched+f.SpecWins+f.ShardFailovers+f.WorkersLost > 0
}

// ErrUnsupported is returned by an engine asked for a configuration
// outside its scope, always wrapped with the engine's name and the
// offending setting: sampling on the device engines (the paper's GPU
// engine [7] likewise ran the expected-loss occurrence pipeline on
// device), per-contract output on the reinstatements and device
// engines, annual-aggregate layer terms on the device engines.
var ErrUnsupported = errors.New("aggregate: configuration unsupported by engine")

// Engine runs aggregate analysis over an input.
type Engine interface {
	// Name identifies the engine in benchmarks and reports.
	Name() string
	// Run executes the analysis. Implementations must be deterministic
	// functions of (in, cfg).
	Run(ctx context.Context, in *Input, cfg Config) (*Result, error)
}

// engines is the one table of engine names, sorted: what
// riskpipeline's -engine flag accepts and prints. The device engine
// (Chunked) is not in it: it runs over occurrence-only books, which no
// pipeline builds, so cmd/benchtables constructs it directly for E1
// and E4.
var engines = []struct {
	name string
	make func() Engine
}{
	{"mapreduce", func() Engine { return MapReduce{} }},
	{"parallel", func() Engine { return Parallel{} }},
	{"reinstatements", func() Engine { return &Reinstatements{} }},
	{"sequential", func() Engine { return Sequential{} }},
}

// EngineNames returns the sorted names EngineByName accepts.
func EngineNames() []string {
	names := make([]string, len(engines))
	for i, e := range engines {
		names[i] = e.name
	}
	return names
}

// EngineByName returns a new engine by its -engine name; the error
// lists the names on offer.
func EngineByName(name string) (Engine, error) {
	for _, e := range engines {
		if e.name == name {
			return e.make(), nil
		}
	}
	return nil, fmt.Errorf("unknown engine %q (want %s)", name, strings.Join(EngineNames(), "|"))
}

// trialScratch holds a worker's reusable kernel buffers (blocked.go),
// grown on demand so the per-trial hot path is allocation-free: the
// block×NumLayers accumulator matrix, the event-major span staging
// arrays, and the block×numContracts output matrices. The zero value
// is ready to use.
type trialScratch struct {
	blockAgg []float64
	spanPos  []int32
	spanLo   []int32
	spanHi   []int32
	spanSum  []float64
	blockCA  []float64
	blockPC  []float64
	blockPCO []float64
}

// runRange is the one trial-range driver: it streams trials
// [r.Lo, r.Hi) in BatchTrials-bounded batches through a worker's own
// scratch and runs the kernel on each batch. Local trial i of a batch
// is global trial lo+i, which fixes the RNG substream, so results are
// independent of how trials were partitioned and batched. The result
// slot for global trial t is t-slotOff: full-length tables (the host
// engines) pass slotOff 0; the MapReduce engine hands each mapper a
// segment table covering only its split and passes the split's start.
// Each finished batch goes to sink (nil for none): the host engines
// pass cfg.BatchSink, a map attempt nil, because only its commit may
// publish. worker keys the resident-bytes accounting and must be
// distinct per concurrent caller. Call after Validate and EnsureFlat.
func runRange(ctx context.Context, in *Input, cfg Config, r stream.Range, rt *residentTracker, worker int, res *Result, slotOff int, sink func(lo int, agg, occ [][]float64)) error {
	scratch := &trialScratch{}
	return streamRange(ctx, in.src(), r, cfg.batchTrials(), rt, worker, &yelt.Table{},
		func(b *yelt.Table, base int) error {
			runBatchBlocked(in.Flat, in, cfg, b, base, res, scratch, slotOff)
			emitBatch(sink, res, base, b.NumTrials, slotOff)
			return nil
		})
}

// runWorkers is the host engines' Run: the whole trial range
// partitioned across workers goroutines, each a runRange into its own
// disjoint slots of one full-length result, so no synchronization is
// needed beyond the final join.
func runWorkers(ctx context.Context, in *Input, cfg Config, workers int) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if _, err := in.EnsureFlat(); err != nil {
		return nil, err
	}
	res := newResult(in, cfg)
	rt := trackerFor(in)
	err := stream.ForEachRange(ctx, in.src().TrialCount(), workers, func(ctx context.Context, r stream.Range, w int) error {
		return runRange(ctx, in, cfg, r, rt, w, res, 0, cfg.BatchSink)
	})
	if err != nil {
		return nil, err
	}
	finishResident(in, res, rt)
	return res, nil
}

// emitBatch delivers trials [base, base+n)'s per-contract rows to sink
// as views into the result tables, whose slot for trial t is t-slotOff.
// The row headers are fresh per call (cheap: per batch, not per trial)
// so a sink may hold them.
func emitBatch(sink func(lo int, agg, occ [][]float64), res *Result, base, n, slotOff int) {
	if sink == nil || res.PerContract == nil || n == 0 {
		return
	}
	lo := base - slotOff
	agg := make([][]float64, len(res.PerContract))
	occ := make([][]float64, len(res.PerContract))
	for ci, t := range res.PerContract {
		agg[ci] = t.Agg[lo : lo+n]
		occ[ci] = t.OccMax[lo : lo+n]
	}
	sink(base, agg, occ)
}

// residentTracker measures the peak bytes of trial data concurrently
// resident across workers during a streaming run. Workers report their
// current batch size after each read; the tracker maintains the sum
// and its high-water mark. One mutex-guarded update per batch (not per
// trial) keeps it off the hot path.
type residentTracker struct {
	mu   sync.Mutex
	per  map[int]int64
	cur  int64
	peak int64
}

func newResidentTracker() *residentTracker {
	return &residentTracker{per: make(map[int]int64)}
}

func (rt *residentTracker) set(worker int, bytes int64) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.cur += bytes - rt.per[worker]
	rt.per[worker] = bytes
	if rt.cur > rt.peak {
		rt.peak = rt.cur
	}
	rt.mu.Unlock()
}

func (rt *residentTracker) Peak() int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.peak
}

// trackerFor returns a tracker for streaming inputs, nil otherwise
// (nil trackers no-op on set).
func trackerFor(in *Input) *residentTracker {
	if in.streaming() {
		return newResidentTracker()
	}
	return nil
}

// peakResident is the run's memory envelope: the tracked batch
// high-water mark for streaming runs, the table footprint otherwise.
// Shared by every result type that reports PeakResidentBytes.
func peakResident(in *Input, rt *residentTracker) int64 {
	if rt != nil {
		return rt.Peak()
	}
	return in.materializedBytes()
}

// finishResident records the run's memory envelope on the result.
func finishResident(in *Input, res *Result, rt *residentTracker) {
	res.PeakResidentBytes = peakResident(in, rt)
}

// streamRange feeds trials [r.Lo, r.Hi) to fn in batches of at most
// batch trials, reading through buf and polling ctx between batches.
// worker keys the resident-bytes accounting; pass a distinct key per
// concurrent caller. The worker's resident bytes are drained on every
// exit path (deferred), so an error mid-stream cannot leave its last
// batch pinned in the tracker's running sum.
func streamRange(ctx context.Context, src yelt.Source, r stream.Range, batch int, rt *residentTracker, worker int, buf *yelt.Table, fn func(b *yelt.Table, base int) error) error {
	defer rt.set(worker, 0)
	for lo := r.Lo; lo < r.Hi; lo += batch {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		hi := min(lo+batch, r.Hi)
		b, err := src.ReadTrials(ctx, lo, hi, buf)
		if err != nil {
			return err
		}
		rt.set(worker, b.SizeBytes())
		if err := fn(b, lo); err != nil {
			return err
		}
	}
	return nil
}

func newResult(in *Input, cfg Config) *Result {
	return newResultN(in, cfg, in.src().TrialCount())
}

// newResultN builds the result tables for n trial slots — the full
// trial count for whole-run results, a range length for the MapReduce
// engine's segment tables.
func newResultN(in *Input, cfg Config, n int) *Result {
	res := &Result{Portfolio: ylt.New("portfolio", n)}
	if cfg.perContract() {
		res.PerContract = make([]*ylt.Table, len(in.Portfolio.Contracts))
		for i, c := range in.Portfolio.Contracts {
			res.PerContract[i] = ylt.New(fmt.Sprintf("contract-%d", c.ID), n)
		}
	}
	return res
}

// Sequential is the single-threaded reference engine — the paper's
// "sequential counterpart" that the many-core engine is measured
// against: the trial-range driver with one worker.
type Sequential struct{}

// Name implements Engine.
func (Sequential) Name() string { return "sequential" }

// Run implements Engine.
func (Sequential) Run(ctx context.Context, in *Input, cfg Config) (*Result, error) {
	return runWorkers(ctx, in, cfg, 1)
}

// Parallel partitions trials across cfg.Workers goroutines. Because
// trials are independent given the pre-simulated YELT (that is the
// point of pre-simulation), the engine is embarrassingly parallel.
type Parallel struct{}

// Name implements Engine.
func (Parallel) Name() string { return "parallel" }

// Run implements Engine.
func (Parallel) Run(ctx context.Context, in *Input, cfg Config) (*Result, error) {
	return runWorkers(ctx, in, cfg, cfg.Workers)
}
