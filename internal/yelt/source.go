package yelt

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/rng"
	"repro/internal/stream"
)

// Source yields trial years in bounded batches — the stage-2 streaming
// abstraction. Per §II the YELT is the burst artifact between stages:
// it must be "organised in a small number of very large tables and
// streamed by independent processes", and aggregate analysis only ever
// scans it. A Source lets the engines consume trials without requiring
// the whole table resident: a materialized *Table is a Source (batches
// are zero-copy views), and a Generator re-derives any batch on demand
// from the catalogue and seed, so trial count is bounded by time, not
// memory.
//
// Sources must be safe for concurrent ReadTrials calls with distinct
// buffers — including overlapping or identical ranges, not just
// disjoint ones: MapReduce's speculative backup mappers re-read a
// split another mapper is still scanning.
type Source interface {
	// TrialCount is the total number of trial years the source yields.
	TrialCount() int
	// ReadTrials materializes trials [lo, hi) into a batch table whose
	// local trial i corresponds to global trial lo+i. The returned
	// table may be buf (with its storage reused) or a view sharing the
	// source's storage; either way it is only valid until the next
	// ReadTrials call with the same buf. A nil buf allocates.
	ReadTrials(ctx context.Context, lo, hi int, buf *Table) (*Table, error)
}

// TrialCount implements Source.
func (t *Table) TrialCount() int { return t.NumTrials }

// ReadTrials implements Source: batches are views sharing the table's
// occurrence storage (no copy); only the rebased offsets go through
// buf. The full range returns the table itself.
func (t *Table) ReadTrials(_ context.Context, lo, hi int, buf *Table) (*Table, error) {
	if lo < 0 || hi > t.NumTrials || lo > hi {
		return nil, fmt.Errorf("yelt: read trials [%d,%d) outside [0,%d)", lo, hi, t.NumTrials)
	}
	if lo == 0 && hi == t.NumTrials {
		return t, nil
	}
	if buf == nil {
		buf = &Table{}
	}
	return t.view(lo, hi, buf), nil
}

// Generator is the streaming counterpart of Generate: it re-derives
// any trial batch on demand instead of pre-simulating the whole table.
// Because every trial draws from its own splittable stream
// (rng.NewStream(seed, trial)), a batch is a pure function of
// (catalogue, config, seed, trial range) — Generate and a Generator
// with the same inputs produce bit-identical occurrences, which the
// equivalence tests pin down. A Generator is safe for concurrent
// ReadTrials calls.
type Generator struct {
	cfg       Config
	seed      uint64
	events    []catalog.Event
	alias     *rng.Alias
	totalRate float64
	count     rng.Poisson // Poisson(totalRate), the year's count
	// streamed counts occurrences delivered through ReadTrials — the
	// streaming analogue of Table.Len for stage accounting.
	streamed atomic.Int64
}

// NewGenerator validates the inputs and prepares the shared samplers.
// The returned generator yields exactly the trials that
// Generate(ctx, cat, cfg, seed) would materialize.
func NewGenerator(cat *catalog.Catalog, cfg Config, seed uint64) (*Generator, error) {
	if cfg.NumTrials <= 0 {
		return nil, fmt.Errorf("yelt: NumTrials must be positive, got %d", cfg.NumTrials)
	}
	if cat.Len() == 0 {
		return nil, errEmptyCatalog
	}
	rate := cat.TotalRate()
	if math.IsNaN(rate) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("yelt: catalogue total rate %g is not finite", rate)
	}
	if rate > rng.MaxPoissonRate {
		return nil, fmt.Errorf("yelt: catalogue total rate %g is above the largest Poisson rate %g", rate, float64(rng.MaxPoissonRate))
	}
	alias, err := rng.NewAlias(cat.Rates())
	if err != nil {
		return nil, fmt.Errorf("yelt: building event sampler: %w", err)
	}
	return &Generator{
		cfg:       cfg,
		seed:      seed,
		events:    cat.Events,
		alias:     alias,
		totalRate: rate,
		count:     rng.NewPoisson(rate),
	}, nil
}

// TrialCount implements Source.
func (g *Generator) TrialCount() int { return g.cfg.NumTrials }

// MeanOccurrences returns the expected events per trial year (the
// catalogue's total rate) — the sizing input for batch-byte estimates.
func (g *Generator) MeanOccurrences() float64 { return g.totalRate }

// Streamed returns the total occurrences delivered through ReadTrials
// so far. Single-pass engines stream each trial exactly once, so after
// such a run Streamed equals the occurrence count of the equivalent
// materialized table.
func (g *Generator) Streamed() int64 { return g.streamed.Load() }

// appendTrial re-derives one trial year and appends its event ids in
// occurrence order; Extend takes the same two steps into a table sized
// in advance. The draw order (Poisson count, then per occurrence an
// alias draw and a uniform day) is the determinism contract and must
// not change. The trial's stream lives on the stack: Reseed gives it
// exactly the state rng.NewStream would allocate. keys is the year's
// sort scratch, returned grown for the caller's next year.
func (g *Generator) appendTrial(trial int, occs []uint32, keys []uint64) ([]uint32, []uint64) {
	var st rng.Stream
	start, k := len(occs), g.openTrial(&st, trial)
	occs = slices.Grow(occs, k)[:start+k]
	keys = g.fillYear(&st, occs[start:], keys)
	return occs, keys
}

// openTrial reseeds st to trial's substream and draws the year's count.
func (g *Generator) openTrial(st *rng.Stream, trial int) int {
	st.Reseed(g.seed, uint64(trial))
	return g.count.Draw(st)
}

// fillYear draws a whole year after openTrial's count into year, in
// occurrence order. Each occurrence draws its event, then its day; the
// year is sorted by the packed key day<<32 | event in keys, and only the
// event id is kept. Equal keys are equal events, so every correct sort
// yields the same year. keys is returned grown to the year's length.
func (g *Generator) fillYear(st *rng.Stream, year []uint32, keys []uint64) []uint64 {
	keys = slices.Grow(keys[:0], len(year))[:len(year)]
	for j := range keys {
		// Calls run left to right: the alias draw, then the day.
		event := uint64(g.events[g.alias.Draw(st)].ID)
		keys[j] = uint64(st.Intn(365))<<32 | event
	}
	sortYear(keys)
	for j, k := range keys {
		year[j] = uint32(k)
	}
	return keys
}

// shortYear is the longest year sortYear orders by insertion. At the
// usual rates (≈ 10 a year) every year is short; a high-rate catalogue's
// longer years go to slices.Sort, so none sorts in quadratic time.
const shortYear = 32

func sortYear(keys []uint64) {
	if len(keys) > shortYear {
		slices.Sort(keys)
		return
	}
	for i := 1; i < len(keys); i++ {
		k, j := keys[i], i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
}

// occsHint is the occurrence capacity n trials are sized for: the
// catalogue's mean rate plus 10 %, so a batch rarely grows mid-fill.
func (g *Generator) occsHint(n int) int { return int(float64(n) * g.totalRate * 11 / 10) }

// ReadTrials implements Source by regenerating trials [lo, hi) into
// buf. Memory use is bounded by the batch, not the trial count; buf's
// storage is sized for the batch up front, so a reused buf of the same
// batch size allocates nothing.
func (g *Generator) ReadTrials(ctx context.Context, lo, hi int, buf *Table) (*Table, error) {
	if lo < 0 || hi > g.cfg.NumTrials || lo > hi {
		return nil, fmt.Errorf("yelt: read trials [%d,%d) outside [0,%d)", lo, hi, g.cfg.NumTrials)
	}
	if buf == nil {
		buf = &Table{}
	}
	buf.NumTrials = hi - lo
	buf.Offsets = append(slices.Grow(buf.Offsets[:0], hi-lo+1), 0)
	buf.Occs = slices.Grow(buf.Occs[:0], g.occsHint(hi-lo))
	var scratch [64]uint64 // one year's sort keys; a longer year grows them
	keys := scratch[:0]
	for trial := lo; trial < hi; trial++ {
		if (trial-lo)%1024 == 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
			}
		}
		buf.Occs, keys = g.appendTrial(trial, buf.Occs, keys)
		buf.Offsets = append(buf.Offsets, int64(len(buf.Occs)))
	}
	g.streamed.Add(int64(len(buf.Occs)))
	return buf, nil
}

// Materialize pre-simulates the full table, parallelized across trial
// blocks exactly as Generate (which is implemented on top of it).
func (g *Generator) Materialize(ctx context.Context) (*Table, error) {
	return g.Extend(ctx, nil)
}

// Extend returns a new table holding prev's trials followed by trials
// [prev.NumTrials, TrialCount()), generated in parallel trial blocks.
// prev (nil means empty) must come from a generator with the same
// catalogue and seed; per-trial substreams then make
// the result exactly the table Materialize would build. prev is copied,
// never written, so its readers are undisturbed. ctx cancels generation
// between trial blocks.
func (g *Generator) Extend(ctx context.Context, prev *Table) (*Table, error) {
	if prev == nil {
		prev = &Table{Offsets: []int64{0}}
	}
	have := prev.NumTrials
	if have > g.cfg.NumTrials {
		return nil, fmt.Errorf("yelt: extending %d trials to %d", have, g.cfg.NumTrials)
	}
	// The first pass draws only each new year's occurrence count, which
	// fixes the offsets, so the table is allocated once at its final size
	// and the second pass fills every year in place: no block is copied.
	n := g.cfg.NumTrials - have
	t := &Table{NumTrials: g.cfg.NumTrials, Offsets: make([]int64, g.cfg.NumTrials+1)}
	copy(t.Offsets, prev.Offsets)
	err := stream.ForEachRange(ctx, n, g.cfg.Workers, func(ctx context.Context, r stream.Range, _ int) error {
		var st rng.Stream
		for trial := have + r.Lo; trial < have+r.Hi; trial++ {
			t.Offsets[trial+1] = int64(g.openTrial(&st, trial))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := have; i < g.cfg.NumTrials; i++ {
		t.Offsets[i+1] += t.Offsets[i]
	}
	t.Occs = make([]uint32, t.Offsets[g.cfg.NumTrials])
	copy(t.Occs, prev.Occs)
	err = stream.ForEachRange(ctx, n, g.cfg.Workers, func(ctx context.Context, r stream.Range, _ int) error {
		var st rng.Stream
		var keys []uint64
		lo, hi := have+r.Lo, have+r.Hi
		for trial := lo; trial < hi; trial++ {
			if (trial-lo)%4096 == 0 {
				select {
				case <-ctx.Done():
					return ctx.Err()
				default:
				}
			}
			g.openTrial(&st, trial)
			keys = g.fillYear(&st, t.Occs[t.Offsets[trial]:t.Offsets[trial+1]], keys)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
