package aggregate

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/mapreduce"
	"repro/internal/stream"
	"repro/internal/yelt"
)

// MapReduce runs stage 2 as a map/reduce job over trial-range splits —
// the Yao/Varghese/Rau-Chaplin companion shape ("High Performance Risk
// Aggregation: ... the Hadoop MapReduce Way"): map over trial splits of
// any yelt.Source into per-range YLT segments, and assemble the YLT
// from them. Each mapper is the shared trial-range driver (runRange)
// over its split into a private segment table; the winning attempt's
// commit copies the segment into its disjoint slot range of the one
// result and hands that range to Config.BatchSink — so the engine is
// bit-identical to Sequential by construction, for any split size or
// mapper count, and feeds a sink exactly once per trial. Combined with
// a spilled yelt.DiskSource the engine is the paper's distributed
// data-organization strategy end to end: partitioned loss data on
// (simulated) storage nodes, scanned by mappers, committed into one
// table.
//
// Unlike the other engines, failed mappers are retried (MaxAttempts),
// mirroring speculative re-execution in the systems the in-process
// mapreduce package stands in for; a mapper's segment is private until
// its commit, so retries cannot corrupt the result.
//
// Over a spilled yelt.DiskSource the engine is locality-aware: splits
// are derived from the shard boundaries (never straddling a shard, so
// each map task scans exactly one shard's file) and scheduled on
// per-node mapper lanes so a shard is scanned by a mapper homed on a
// node that holds it; Result.LocalBytes/RemoteBytes account the data
// motion. Any other source gets uniform chunks and placement-free
// scheduling. The source's type decides, not an option: where a split
// runs cannot change results — splits cover the same disjoint trial
// ranges whichever worker scans them.
type MapReduce struct {
	// SplitTrials is the per-mapper trial range — the unit of work
	// distribution, deliberately coarser than Config.BatchTrials (the
	// unit of resident memory within a mapper); <= 0 means
	// DefaultSplitTrials. Over a DiskSource it bounds the split length
	// within a shard; shard boundaries still win.
	SplitTrials int
	// MaxAttempts bounds map-task retries; <= 0 means 2 (one retry).
	MaxAttempts int
	// Speculate launches backup attempts for straggling map tasks
	// (first finisher wins; duplicates are discarded, so results are
	// unchanged — see mapreduce.Config.Speculate).
	Speculate bool
	// Faults, when non-nil, injects the plan's deterministic failures
	// into the run: shard-read faults into the spilled store (installed
	// for the duration of the run when the source is a DiskSource),
	// node kills into the mapper lanes, and split delays into task
	// execution. Nil injects nothing.
	Faults *faultinject.Plan
}

// DefaultSplitTrials is the default mapper split: a few batches per
// split keeps per-task dispatch negligible while still yielding enough
// splits to balance mappers on million-trial runs.
const DefaultSplitTrials = 4 * DefaultBatchTrials

// DefaultSpillParts sizes a yelt.Spill at one shard per started
// DefaultSplitTrials trials: no shard is longer than the default mapper
// split, so each is one map task. Shared by every spill call site
// (pipeline, CLIs, benchmarks).
func DefaultSpillParts(numTrials int) int {
	return max(1, (numTrials+DefaultSplitTrials-1)/DefaultSplitTrials)
}

// Name implements Engine.
func (MapReduce) Name() string { return "mapreduce" }

// copySegment writes a map task's segment tables into dst's tables
// from slot lo on.
func copySegment(dst, seg *Result, lo int) {
	copy(dst.Portfolio.Agg[lo:], seg.Portfolio.Agg)
	copy(dst.Portfolio.OccMax[lo:], seg.Portfolio.OccMax)
	if dst.Premium != nil {
		copy(dst.Premium[lo:], seg.Premium)
	}
	for ci := range dst.PerContract {
		copy(dst.PerContract[ci].Agg[lo:], seg.PerContract[ci].Agg)
		copy(dst.PerContract[ci].OccMax[lo:], seg.PerContract[ci].OccMax)
	}
}

// Run implements Engine.
func (m MapReduce) Run(ctx context.Context, in *Input, cfg Config) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if _, err := in.EnsureFlat(); err != nil {
		return nil, err
	}
	src := in.src()
	n := src.TrialCount()
	splitTrials := m.SplitTrials
	if splitTrials <= 0 {
		splitTrials = DefaultSplitTrials
	}
	maxAttempts := m.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 2
	}

	// Splits are the map inputs. Over a sharded source they follow the
	// shard boundaries — each split lies inside exactly one shard, so a
	// map task scans one shard's file and the task's data motion is
	// attributable to one node.
	ds, sharded := src.(*yelt.DiskSource)
	var ranges []stream.Range
	var shardOf []int // shardOf[i] = shard holding split i (sharded only)
	if sharded {
		shards := make([]stream.Range, ds.Shards())
		for s := range shards {
			shards[s] = ds.ShardRange(s)
		}
		ranges, shardOf = shardSplits(shards, splitTrials)
	} else {
		ranges = stream.Chunks(n, splitTrials)
	}

	// A map attempt runs its range into a private segment table and
	// publishes nothing; its first trial keys its resident bytes.
	rt := trackerFor(in)
	mapf := func(ctx context.Context, r stream.Range) (*Result, error) {
		seg := newResultN(in, cfg, r.Len())
		if err := runRange(ctx, in, cfg, r, rt, r.Lo, blockedKernel(in, cfg, seg, r.Lo, nil)); err != nil {
			return nil, err
		}
		return seg, nil
	}
	res := newResult(in, cfg)

	// Busy time is measured for every run (elastic provisioning reports
	// allocated vs busy processor-time); byte motion only over shards,
	// where a split's cost is its pro-rata share of its shard's size.
	var busyNanos, localBytes, remoteBytes atomic.Int64
	var splitBytes []int64
	stats := &mapreduce.Stats{}
	mrCfg := mapreduce.Config{
		Mappers:     cfg.Workers,
		MaxAttempts: maxAttempts,
		RetrySeed:   cfg.Seed,
		Speculate:   m.Speculate,
		Stats:       stats,
	}
	// The commit is the only writer of res: each split's winning
	// segment lands in its own disjoint slot range exactly once, so
	// concurrent commits neither overlap nor depend on order, and the
	// sink sees every trial once. The segment is garbage once copied.
	commit := func(split int, seg *Result, local bool, busy time.Duration) {
		r := ranges[split]
		copySegment(res, seg, r.Lo)
		emitBatch(cfg.BatchSink, res, r.Lo, r.Len(), 0)
		busyNanos.Add(int64(busy))
		if splitBytes == nil {
			return
		}
		if local {
			localBytes.Add(splitBytes[split])
		} else {
			remoteBytes.Add(splitBytes[split])
		}
	}
	if m.Faults != nil {
		mrCfg.NodeFault = m.Faults.NodeTask
		mrCfg.TaskDelay = m.Faults.SplitDelay
		// Shard-read faults reach the scan through the spilled store.
		if sharded {
			st := ds.Store()
			st.SetReadFault(m.Faults.DiskRead)
			defer st.SetReadFault(nil)
		}
	}
	if sharded {
		splitBytes = make([]int64, len(ranges))
		for i, r := range ranges {
			s := shardOf[i]
			splitBytes[i] = ds.ShardSizeBytes(s) * int64(r.Len()) / int64(ds.ShardRange(s).Len())
		}
		mrCfg.Nodes = ds.Nodes()
		// Any holder of a split's shard scans it off its own disk.
		mrCfg.Holders = func(split int) []int { return ds.ShardNodes(shardOf[split]) }
	}

	var failovers0 int64
	if sharded {
		failovers0 = ds.Failovers()
	}
	if err := mapreduce.Run(ctx, ranges, mapf, commit, mrCfg); err != nil {
		return nil, err
	}
	res.LocalBytes = localBytes.Load()
	res.RemoteBytes = remoteBytes.Load()
	res.BusySeconds = time.Duration(busyNanos.Load()).Seconds()
	res.MapFailures = stats.Failures.Load()
	res.MapRetries = stats.Retries.Load()
	res.SpecLaunched = stats.SpecLaunched.Load()
	res.SpecWins = stats.SpecWins.Load()
	res.WorkersLost = stats.WorkersLost.Load()
	if sharded {
		res.ShardFailovers = ds.Failovers() - failovers0
	}
	finishResident(in, res, rt)
	return res, nil
}

// shardSplits derives the map splits from a spilled source's shard
// boundaries: each shard is chunked into at most splitTrials-length
// splits, so no split ever straddles two shards and every split's scan
// touches exactly one shard file. Returns the split ranges and each
// split's owning shard. Under default sizing (DefaultSpillParts shards
// of at most DefaultSplitTrials trials) that is one split per shard.
func shardSplits(shards []stream.Range, splitTrials int) (ranges []stream.Range, shardOf []int) {
	for s, sr := range shards {
		for _, c := range stream.Chunks(sr.Len(), splitTrials) {
			ranges = append(ranges, stream.Range{Lo: sr.Lo + c.Lo, Hi: sr.Lo + c.Hi})
			shardOf = append(shardOf, s)
		}
	}
	return ranges, shardOf
}
