package warehouse

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/ylt"
)

// cellAcc is one cube cell under incremental construction: running
// Agg/OccMax columns that per-contract trial batches fold into.
type cellAcc struct {
	key     string
	members []int
	agg     []float64
	occ     []float64
}

// Builder materializes a cube incrementally from streamed stage-2
// output. Instead of retaining every member YLT per cell until a
// final combine (memory grows with members × cells), each IngestBatch
// folds a trial range of every contract straight into the matching
// cells' running columns, so resident state is just the cube columns
// themselves — bounded by cells × trials regardless of book size.
// Finalize summarizes each cell and drops its columns: the cube keeps
// the summaries and the per-contract registry only.
//
// Bit-identity with the cube's re-fold from its registry (Replace,
// RecomputeCell) comes from fold order: for any (cell, trial),
// ylt.Combine adds members in ascending contract order, and
// IngestBatch folds all contracts of a batch in ascending order within
// one call. Batches cover disjoint trial ranges, so the per-(cell,
// trial) addition order is the same no matter how many workers deliver
// batches or how the trial space is cut — the same argument that makes
// the streaming engines batch-size-independent.
//
// IngestBatch is safe to call concurrently for disjoint trial ranges;
// each contract's matching cells are written only in the [lo, lo+k)
// slice window.
type Builder struct {
	dims    []string
	n       int
	workers int
	keys    []string
	members map[string][]int
	cells   map[string]*cellAcc
	// byContract[ci] lists the cells contract ci folds into.
	byContract [][]*cellAcc

	foldNanos atomic.Int64

	mu   sync.Mutex
	err  error
	done bool
	// ingested lists the trial ranges folded so far; every batch folds
	// every contract, so Finalize checks that they tile [0, n).
	ingested []stream.Range
}

// NewBuilder prepares an incremental cube over numTrials trials for a
// book whose contract attributes are attrs (attrs[i] maps dimension
// name -> value for contract i).
func NewBuilder(dims []string, attrs []map[string]string, numTrials, workers int) (*Builder, error) {
	if err := validateDims(dims); err != nil {
		return nil, err
	}
	if numTrials <= 0 {
		return nil, fmt.Errorf("warehouse: %d trials", numTrials)
	}
	if len(attrs) == 0 {
		return nil, errors.New("warehouse: no contract attributes")
	}
	if err := validateAttrs(attrs, dims); err != nil {
		return nil, err
	}
	keys, members := cellMembers(dims, attrs)
	b := &Builder{
		dims:       append([]string(nil), dims...),
		n:          numTrials,
		workers:    workers,
		keys:       keys,
		members:    members,
		cells:      make(map[string]*cellAcc, len(keys)),
		byContract: make([][]*cellAcc, len(attrs)),
	}
	for _, key := range keys {
		acc := &cellAcc{
			key:     key,
			members: members[key],
			agg:     make([]float64, numTrials),
			occ:     make([]float64, numTrials),
		}
		b.cells[key] = acc
		for _, ci := range acc.members {
			b.byContract[ci] = append(b.byContract[ci], acc)
		}
	}
	return b, nil
}

// FoldDuration returns the cumulative wall time spent folding batches
// (summed across concurrent callers, like a busy-time counter).
func (b *Builder) FoldDuration() time.Duration {
	return time.Duration(b.foldNanos.Load())
}

// setErr latches the first ingest error for Finalize to report.
func (b *Builder) setErr(err error) error {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
	return err
}

// IngestBatch folds trials [lo, lo+k) of every contract into the
// cube, where agg[ci][j] and occ[ci][j] are contract ci's annual
// aggregate and largest single-occurrence loss for trial lo+j, and k
// is the row length. Rows are read, never retained. Calls covering
// disjoint trial ranges may run concurrently; each trial range must
// be delivered exactly once, or Finalize refuses the build.
func (b *Builder) IngestBatch(lo int, agg, occ [][]float64) error {
	b.mu.Lock()
	done := b.done
	b.mu.Unlock()
	if done {
		return b.setErr(errors.New("warehouse: ingest after Finalize"))
	}
	nc := len(b.byContract)
	if len(agg) != nc || len(occ) != nc {
		return b.setErr(fmt.Errorf("warehouse: batch has %d/%d contract rows, builder has %d", len(agg), len(occ), nc))
	}
	k := len(agg[0])
	if k == 0 {
		return b.setErr(errors.New("warehouse: empty batch"))
	}
	if lo < 0 || lo+k > b.n {
		return b.setErr(fmt.Errorf("warehouse: batch [%d,%d) outside [0,%d)", lo, lo+k, b.n))
	}
	for ci := 0; ci < nc; ci++ {
		if len(agg[ci]) != k || len(occ[ci]) != k {
			return b.setErr(fmt.Errorf("warehouse: contract %d row length %d/%d, want %d", ci, len(agg[ci]), len(occ[ci]), k))
		}
	}
	start := time.Now()
	for ci := 0; ci < nc; ci++ {
		a, o := agg[ci], occ[ci]
		for _, cell := range b.byContract[ci] {
			ca := cell.agg[lo : lo+k]
			co := cell.occ[lo : lo+k]
			for j, v := range a {
				ca[j] += v
			}
			for j, v := range o {
				if v > co[j] {
					co[j] = v
				}
			}
		}
	}
	b.foldNanos.Add(int64(time.Since(start)))
	b.mu.Lock()
	b.ingested = append(b.ingested, stream.Range{Lo: lo, Hi: lo + k})
	b.mu.Unlock()
	return nil
}

// Finalize summarizes every cell and returns the cube. The folded
// trial ranges must tile [0, n) exactly: no trial missed, none folded
// twice. tables becomes the cube's per-contract registry and must
// align with the builder's book: same contract count and trial count,
// occurrence-bearing. The builder cannot ingest after Finalize, and
// each cell's columns are released once summarized.
func (b *Builder) Finalize(ctx context.Context, tables []*ylt.Table) (*Cube, error) {
	b.mu.Lock()
	err := b.err
	b.done = true
	ingested := b.ingested
	b.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("warehouse: ingest failed: %w", err)
	}
	sort.Slice(ingested, func(i, j int) bool { return ingested[i].Lo < ingested[j].Lo })
	next := 0
	for _, r := range ingested {
		switch {
		case r.Lo < next:
			return nil, fmt.Errorf("warehouse: trial %d folded twice", r.Lo)
		case r.Lo > next:
			return nil, fmt.Errorf("warehouse: trials [%d,%d) never folded", next, r.Lo)
		}
		next = r.Hi
	}
	if next != b.n {
		return nil, fmt.Errorf("warehouse: trials [%d,%d) never folded", next, b.n)
	}
	if len(tables) != len(b.byContract) {
		return nil, fmt.Errorf("warehouse: registry has %d tables, builder has %d contracts", len(tables), len(b.byContract))
	}
	for ci, t := range tables {
		if t == nil || t.NumTrials() != b.n {
			return nil, fmt.Errorf("warehouse: registry table %d does not span %d trials", ci, b.n)
		}
		if !t.HasOccurrence() {
			return nil, fmt.Errorf("warehouse: registry table %d lacks occurrence data", ci)
		}
	}
	cube := &Cube{
		dims:    append([]string(nil), b.dims...),
		cells:   make(map[string]*Cell, len(b.keys)),
		members: b.members,
		tables:  append([]*ylt.Table(nil), tables...),
		workers: b.workers,
	}
	var mu sync.Mutex
	ferr := stream.ForEach(ctx, len(b.keys), b.workers, func(_ context.Context, i int) error {
		acc := b.cells[b.keys[i]]
		summary, serr := metrics.Summarize(&ylt.Table{Name: acc.key, Agg: acc.agg, OccMax: acc.occ})
		if serr != nil {
			return fmt.Errorf("warehouse: summarizing %q: %w", acc.key, serr)
		}
		acc.agg, acc.occ = nil, nil
		cell := &Cell{Key: acc.key, Members: len(acc.members), Summary: summary}
		mu.Lock()
		cube.cells[acc.key] = cell
		mu.Unlock()
		return nil
	})
	if ferr != nil {
		return nil, ferr
	}
	return cube, nil
}
