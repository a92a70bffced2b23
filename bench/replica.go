package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/aggregate"
	"repro/internal/catalog"
	"repro/internal/catmodel"
	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/elt"
	"repro/internal/exposure"
	"repro/internal/lossindex"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/internal/warehouse"
	"repro/internal/yelt"
)

// tracedSource wraps a trial source so that every ReadTrials call is a
// child span of whichever layer is driving it (the engine when fused,
// the spill writer when spilling). *yelt.DiskSource is never wrapped:
// the MapReduce engine type-asserts it to place mappers by shard.
type tracedSource struct {
	src    yelt.Source
	rec    *recorder
	parent int
}

func (t *tracedSource) TrialCount() int { return t.src.TrialCount() }

func (t *tracedSource) ReadTrials(ctx context.Context, lo, hi int, buf *yelt.Table) (*yelt.Table, error) {
	id := t.rec.begin("yelt.read", t.parent)
	defer t.rec.end(id)
	return t.src.ReadTrials(ctx, lo, hi, buf)
}

// replica carries one traced pass. err is sticky: after the first
// failing layer call the remaining calls are skipped.
type replica struct {
	ctx    context.Context
	cfg    core.Config
	rec    *recorder
	root   int
	counts map[string]float64
	err    error
}

// call runs fn inside a span that is a direct child of the pass's root.
func (r *replica) call(name string, fn func(id int) error) {
	if r.err != nil {
		return
	}
	id := r.rec.begin(name, r.root)
	defer r.rec.end(id)
	if err := fn(id); err != nil {
		r.err = fmt.Errorf("replica: %s: %w", name, err)
	}
}

// tracedPass is core.Pipeline.Run written out call by call, with one
// span around each call into a layer. It must stay a replica: same
// calls, same seeds, same order, so that its two summaries are
// bit-identical to an untraced Run of cfg (the caller checks). counts
// holds the work counts read off the layers' results at the same
// boundaries. cfg.SpillDir must be set when cfg.Spill is; the caller
// removes it.
func tracedPass(ctx context.Context, cfg core.Config, rec *recorder) (catSum, entSum *metrics.Summary, counts map[string]float64, err error) {
	cfg = core.New(cfg).Cfg // the same defaulting Run applies
	if cfg.Provision != nil || cfg.Faults != nil || cfg.SpillAttach || cfg.Sources != nil {
		return nil, nil, nil, errors.New("replica: configuration uses a core feature the replica does not mirror")
	}
	r := &replica{ctx: ctx, cfg: cfg, rec: rec, counts: make(map[string]float64)}
	r.root = rec.begin("core", 0)
	var ds *yelt.DiskSource
	catSum, entSum, ds = r.run()
	rec.end(r.root)
	if r.err == nil && ds != nil {
		r.scanProbe(ds)
	}
	return catSum, entSum, r.counts, r.err
}

func (r *replica) run() (catSum, entSum *metrics.Summary, ds *yelt.DiskSource) {
	cfg, ctx, counts := r.cfg, r.ctx, r.counts
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Stage 1: catalogue, then per contract exposure and the cat model,
	// then the book and its pre-joined layouts.
	var cat *catalog.Catalog
	r.call("catalog", func(int) (err error) {
		ccfg := catalog.DefaultConfig()
		ccfg.NumEvents = cfg.NumEvents
		ccfg.MeanEventsPerYear = cfg.MeanEventsPerYear
		cat, err = catalog.Generate(ccfg, cfg.Seed)
		if err == nil {
			counts["catalog.events"] = float64(cat.Len())
		}
		return err
	})
	eng := catmodel.New()
	eng.Workers = workers
	var elts []*elt.Table
	for c := 0; c < cfg.NumContracts; c++ {
		var db *exposure.Database
		r.call("exposure", func(int) (err error) {
			ecfg := exposure.DefaultConfig()
			ecfg.NumLocations = cfg.LocationsPerContract
			db, err = exposure.Generate(ecfg, cfg.Seed+uint64(1000+c))
			return err
		})
		r.call("catmodel", func(int) error {
			tbl, err := eng.Run(ctx, cat, db, uint32(c+1))
			if err != nil {
				return err
			}
			elts = append(elts, tbl)
			counts["exposure.interests"] += float64(len(db.Interests))
			counts["catmodel.pairs"] += float64(cat.Len()) * float64(len(db.Interests))
			counts["catmodel.elt_records"] += float64(tbl.Len())
			return nil
		})
	}
	in := &aggregate.Input{ELTs: elts}
	r.call("synth", func(int) error {
		in.Portfolio = synth.BuildPortfolio(elts, false, cfg.TwoLayers)
		return nil
	})
	r.call("lossindex.build", func(int) (err error) {
		in.Index, err = lossindex.Build(elts, in.Portfolio)
		return err
	})
	r.call("lossindex.flatten", func(int) (err error) {
		if in.Flat, err = lossindex.Flatten(in.Index, in.Portfolio); err != nil {
			return err
		}
		counts["lossindex.entries"] = float64(in.Index.NumEntries())
		counts["lossindex.bytes"] = float64(in.Index.SizeBytes() + in.Flat.SizeBytes())
		return nil
	})

	// Stage 2: the trial stream (materialised, fused or spilled), then
	// the engine.
	ycfg := yelt.Config{NumTrials: cfg.NumTrials, Workers: cfg.Workers}
	var gen *yelt.Generator
	fused := &tracedSource{rec: r.rec}
	switch {
	case cfg.Spill:
		r.call("yelt.spill", func(id int) (err error) {
			if gen, err = yelt.NewGenerator(cat, ycfg, cfg.Seed+7); err != nil {
				return err
			}
			fused.src, fused.parent = gen, id
			parts := cfg.SpillParts
			if parts <= 0 {
				parts = aggregate.DefaultSpillParts(cfg.NumTrials)
			}
			if ds, err = yelt.SpillToDir(ctx, fused, cfg.SpillDir, cfg.SpillNodes, parts, cfg.SpillReplicas, cfg.Workers); err != nil {
				return err
			}
			in.Source = ds
			bytes, err := ds.SizeBytes()
			counts["yelt.spill_bytes"] = float64(bytes)
			return err
		})
	case cfg.Streaming:
		// The generator is built inside the engine's span, below.
	default:
		r.call("yelt.generate", func(int) (err error) {
			if in.YELT, err = yelt.Generate(ctx, cat, ycfg, cfg.Seed+7); err != nil {
				return err
			}
			counts["yelt.occurrences"] = float64(in.YELT.Len())
			return nil
		})
	}
	aggCfg := aggregate.Config{
		Seed:        cfg.Seed + 13,
		Sampling:    cfg.Sampling,
		Workers:     workers,
		BatchTrials: cfg.BatchTrials,
		Kernel:      cfg.Kernel,
		TrialBlock:  cfg.TrialBlock,
	}
	var builder *warehouse.Builder
	var res *aggregate.Result
	r.call("aggregate", func(id int) (err error) {
		if cfg.Streaming && !cfg.Spill {
			if gen, err = yelt.NewGenerator(cat, ycfg, cfg.Seed+7); err != nil {
				return err
			}
			fused.src, fused.parent = gen, id
			in.Source = fused
		}
		if len(cfg.CubeDims) > 0 {
			// Only the live-sink form of the cube build is mirrored; it
			// is the one the benchmark's workloads take.
			if _, ok := cfg.Engine.(aggregate.Parallel); !ok {
				return errors.New("cube build mirrored for the Parallel engine only")
			}
			builder, err = warehouse.NewBuilder(cfg.CubeDims, warehouse.DefaultAttrs(cfg.NumContracts), cfg.NumTrials, workers)
			if err != nil {
				return err
			}
			aggCfg.PerContract = true
			// An ingest error is latched in the builder and returned by
			// Finalize.
			aggCfg.BatchSink = func(lo int, agg, occ [][]float64) { _ = builder.IngestBatch(lo, agg, occ) }
		}
		if res, err = cfg.Engine.Run(ctx, in, aggCfg); err != nil {
			return err
		}
		if gen != nil {
			counts["yelt.occurrences"] = float64(gen.Streamed())
		}
		counts["aggregate.trials"] = float64(res.Portfolio.NumTrials())
		counts["aggregate.peak_resident_bytes"] = float64(res.PeakResidentBytes)
		counts["mapreduce.map_busy_s"] = res.BusySeconds
		if moved := res.LocalBytes + res.RemoteBytes; moved > 0 {
			counts["mapreduce.local_share"] = float64(res.LocalBytes) / float64(moved)
		}
		counts["mapreduce.map_retries"] = float64(res.MapRetries)
		counts["mapreduce.spec_launched"] = float64(res.SpecLaunched)
		return nil
	})
	if builder != nil {
		r.call("warehouse.finalize", func(int) error {
			cube, err := builder.Finalize(ctx, res.PerContract)
			if err != nil {
				return err
			}
			counts["warehouse.cells"] = float64(cube.Cells())
			counts["warehouse.fold_s"] = builder.FoldDuration().Seconds()
			return nil
		})
	}

	// Stage 3 and the two reports.
	var dres *dfa.Result
	r.call("dfa", func(int) (err error) {
		ig := &dfa.Integrator{Sources: dfa.StandardSources(res.Portfolio.Mean())}
		if dres, err = ig.Run(ctx, res.Portfolio, dfa.Config{Seed: cfg.Seed + 29, Workers: workers, Rho: cfg.Rho}); err != nil {
			return err
		}
		counts["dfa.bytes"] = float64(dres.TotalBytes)
		return nil
	})
	r.call("metrics", func(int) (err error) {
		if catSum, err = metrics.Summarize(res.Portfolio); err != nil {
			return err
		}
		entSum, err = metrics.Summarize(dres.Enterprise)
		return err
	})
	return catSum, entSum, ds
}

// scanProbe re-reads every shard once, sequentially, under a span of its
// own outside the pass: the cost of the disk scan that the MapReduce
// engine's span hides inside its map tasks.
func (r *replica) scanProbe(ds *yelt.DiskSource) {
	r.root = 0
	r.call("yelt.scan", func(int) error {
		var buf yelt.Table
		for i := 0; i < ds.Shards(); i++ {
			sr := ds.ShardRange(i)
			if _, err := ds.ReadTrials(r.ctx, sr.Lo, sr.Hi, &buf); err != nil {
				return err
			}
		}
		return nil
	})
	r.counts["yelt.failovers"] = float64(ds.Failovers())
	r.counts["diskstore.shards"] = float64(ds.Shards())
	onDisk, err := ds.Store().TotalSizeBytes("yelt")
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("replica: spill size: %w", err)
	}
	r.counts["diskstore.bytes_on_disk"] = float64(onDisk)
}
