package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"time"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/yelt"
)

// digestFloats folds the bits of vs into an FNV-1a hash, so two outputs
// agree only if every float is bit-identical.
func digestFloats(vs ...float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func summaryFloats(s *metrics.Summary) []float64 {
	vs := []float64{float64(s.Trials), s.AAL, s.AggStdDev, s.VaR99, s.TVaR99, s.VaR995, s.TVaR995}
	for _, r := range s.ReturnRows {
		vs = append(vs, r.ReturnPeriod, r.OEP, r.AEP)
	}
	return vs
}

// reportDigest is a pass's output_digest: the catastrophe and the
// enterprise summary.
func reportDigest(cat, ent *metrics.Summary) uint64 {
	return digestFloats(append(summaryFloats(cat), summaryFloats(ent)...)...)
}

// checkSummaries asserts what holds for a risk summary whatever produced
// it: a tail mean is at least its quantile, and quantiles and both
// exceedance curves do not fall as the return period grows. (AEP >= OEP
// is not among them: annual aggregate deductibles apply after the
// occurrence terms, so a year's recovery can be below its largest
// occurrence recovery, and on small books the curves cross.)
func checkSummaries(sums ...*metrics.Summary) error {
	for _, s := range sums {
		if s.TVaR99 < s.VaR99 || s.TVaR995 < s.VaR995 || s.VaR995 < s.VaR99 || s.TVaR995 < s.TVaR99 {
			return fmt.Errorf("%s: VaR99 %g, TVaR99 %g, VaR99.5 %g, TVaR99.5 %g are out of order", s.Name, s.VaR99, s.TVaR99, s.VaR995, s.TVaR995)
		}
		for i := 1; i < len(s.ReturnRows); i++ {
			if prev, r := s.ReturnRows[i-1], s.ReturnRows[i]; r.AEP < prev.AEP || r.OEP < prev.OEP {
				return fmt.Errorf("%s: exceedance curve falls between return periods %g and %g", s.Name, prev.ReturnPeriod, r.ReturnPeriod)
			}
		}
	}
	return nil
}

// oracleCheck runs the workload's book at reduced size (events ÷ 5,
// oracleTrials trials) through the workload's own stage-2 configuration
// and requires the catastrophe YLT to equal, bit for bit, what the
// pre-index reference engine computes from the same book and the same
// trial stream. The reference shares the least code with the production
// kernels; it only reads a materialised table, so the stream is
// materialised for it.
func oracleCheck(ctx context.Context, w workload, seed uint64) error {
	w.shape.events = max(w.shape.events/5, 1)
	w.shape.trials = w.shape.oracleTrials
	dir := spillDirFor(w, "oracle")
	if w.spill {
		defer os.RemoveAll(dir)
	}
	cfg := w.coreConfig(seed, dir)
	p := core.New(cfg)
	if err := p.RunStage1(ctx); err != nil {
		return err
	}
	if err := p.RunStage2(ctx); err != nil {
		return err
	}
	// Seed+7 and Seed+13 are how core derives the trial-stream and the
	// sampling seeds from the book seed.
	gen, err := yelt.NewGenerator(p.Catalog, yelt.Config{NumTrials: cfg.NumTrials, Workers: cfg.Workers}, cfg.Seed+7)
	if err != nil {
		return err
	}
	tbl, err := gen.Materialize(ctx)
	if err != nil {
		return err
	}
	ref, err := aggregate.LegacyLookup{}.Run(ctx,
		&aggregate.Input{YELT: tbl, ELTs: p.ELTs, Portfolio: p.Portfolio},
		aggregate.Config{Seed: cfg.Seed + 13, Sampling: cfg.Sampling})
	if err != nil {
		return err
	}
	got, want := p.CatYLT, ref.Portfolio
	if digestFloats(got.Agg...) != digestFloats(want.Agg...) || digestFloats(got.OccMax...) != digestFloats(want.OccMax...) {
		return fmt.Errorf("oracle: %s engine disagrees with the legacy lookup kernel on the reduced book", cfg.Engine.Name())
	}
	return nil
}

// timedSetups repeats set-up reps times and returns each repeat's
// duration in seconds.
func timedSetups(reps int, setup func() error) ([]float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return secs, nil
}

// pass is what one untraced pass measured and produced.
type pass struct {
	wall    float64 // seconds
	cpu     float64 // processor seconds, user and system
	peakMiB float64 // resident high-water mark of the pass alone
	digest  uint64
}

// untracedPass is the timed operation of a batch workload: one
// core.Pipeline.Run, both summaries included, started like riskpipeline
// starts it: from a heap that holds nothing of an earlier run, with the
// resident high-water mark reset so that it is this pass's own. Spill
// shards go to a fresh directory that is removed after the clock stops.
func untracedPass(ctx context.Context, w workload, seed uint64) (pass, error) {
	dir := spillDirFor(w, "pass")
	if w.spill {
		defer os.RemoveAll(dir)
	}
	p := core.New(w.coreConfig(seed, dir))
	resetPeakRSS()
	cpu0, start := cpuSeconds(), time.Now()
	rep, err := p.Run(ctx)
	out := pass{wall: time.Since(start).Seconds(), cpu: cpuSeconds() - cpu0, peakMiB: peakRSSMiB()}
	if err != nil {
		return out, err
	}
	if err := checkSummaries(rep.Catastrophe, rep.Enterprise); err != nil {
		return out, err
	}
	out.digest = reportDigest(rep.Catastrophe, rep.Enterprise)
	return out, nil
}

// passLoop repeats op until the time budget is used, and at least
// minOps times. It stops early rather than start an operation that
// would overrun the budget by more than it fits. op returns the
// operation's own duration.
func passLoop(seconds float64, minOps int, op func() (float64, error)) (walls []float64, failures []error) {
	start := time.Now()
	var last float64
	for len(walls)+len(failures) < minOps || time.Since(start).Seconds()+last <= seconds {
		wall, err := op()
		if err != nil {
			failures = append(failures, err)
		} else {
			walls = append(walls, wall)
		}
		last = wall
	}
	return walls, failures
}

// runBatch measures a batch workload. With tracing off it reports the
// end-to-end metrics over repeated untraced passes; with tracing on it
// makes one untraced pass for reference and then traced replica passes,
// and reports the per-layer metrics.
func runBatch(ctx context.Context, w workload, opt options) (*report, error) {
	rep := newReport(w, opt)
	setups, err := timedSetups(w.shape.setupReps, func() error { return oracleCheck(ctx, w, opt.seed) })
	if err != nil {
		return nil, err
	}

	var digests []uint64
	var cpus, peaks []float64
	untraced := func() (float64, error) {
		p, err := untracedPass(ctx, w, opt.seed)
		if err == nil {
			digests = append(digests, p.digest)
			cpus = append(cpus, p.cpu)
			peaks = append(peaks, p.peakMiB)
		}
		return p.wall, err
	}
	if !opt.trace {
		walls, failures := passLoop(opt.seconds, w.shape.minOps, untraced)
		rep.countOps(len(walls), failures)
		rep.checkDigests(digests)
		if len(walls) == 0 {
			return rep, nil
		}
		trials := float64(w.shape.trials)
		rep.Samples = len(walls)
		rep.set("setup_s", median(setups))
		rep.set("op_p50_ms", 1e3*median(walls))
		rep.set("trials_per_s", trials*float64(len(walls))/sum(walls))
		rep.set("cpu_s_per_mtrial", median(cpus)/(trials/1e6))
		// Whether a pass's transient copies are collected before the next
		// are made is the collector's timing, which moves a pass's peak by
		// as much as a fifth at random; the smallest peak is the one that
		// repeats.
		rep.set("peak_rss_mib", slices.Min(peaks))
		return rep, nil
	}

	// One untraced pass is the reference for the replica's digest and
	// for the cost of tracing.
	refWalls, failures := passLoop(0, 1, untraced)
	rep.countOps(len(refWalls), failures)
	if len(refWalls) == 0 {
		return rep, nil
	}
	rec := newRecorder(w.name)
	var layers []map[string]float64
	walls, failures := passLoop(opt.seconds-refWalls[0], 1, func() (float64, error) {
		rec.nextPass()
		from := rec.len()
		dir := spillDirFor(w, "traced")
		if w.spill {
			defer os.RemoveAll(dir)
		}
		cat, ent, counts, err := tracedPass(ctx, w.coreConfig(opt.seed, dir), rec)
		if err != nil {
			return 0, err
		}
		spans := rec.snapshot()[from:]
		wall := spans[0].seconds() // the pass's root span
		digests = append(digests, reportDigest(cat, ent))
		layers = append(layers, layerMetrics(spans, counts, w.workerCount(), refWalls[0]))
		return wall, nil
	})
	rep.countOps(len(walls), failures)
	rep.checkDigests(digests)
	rep.Samples = len(walls)
	rep.setAll(medianOf(layers))
	if opt.traceOut != "" {
		if err := rec.dump(opt.traceOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// layerMetrics turns one traced pass (its spans, root first, and the
// counts read at the layer boundaries) into per-layer metrics. busy_s of
// a layer is the summed duration of its spans. workers is the
// parallelism of the pass; untracedWall is the reference pass without
// tracing, 0 when there is none to compare with.
func layerMetrics(spans []span, counts map[string]float64, workers int, untracedWall float64) map[string]float64 {
	m := make(map[string]float64, len(counts)+32)
	for k, v := range counts {
		m[k] = v
	}
	root := spans[0]
	busy := make(map[string]float64)
	var engine span
	for _, s := range spans[1:] {
		busy[s.Name] += s.seconds()
		if s.Name == "aggregate" {
			engine = s
		}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	m["catalog.busy_s"] = busy["catalog"]
	m["exposure.busy_s"] = busy["exposure"]
	m["synth.busy_s"] = busy["synth"]
	m["catmodel.busy_s"] = busy["catmodel"]
	m["catmodel.ns_per_pair"] = 1e9 * ratio(busy["catmodel"], m["catmodel.pairs"])
	m["lossindex.build_s"] = busy["lossindex.build"]
	m["lossindex.flatten_s"] = busy["lossindex.flatten"]

	// The generator runs as one materialising call, or as fused reads
	// spread over the workers of the layer that drives it.
	m["yelt.gen_busy_s"] = busy["yelt.generate"] + busy["yelt.read"]
	m["yelt.ns_per_occ"] = 1e9 * ratio(m["yelt.gen_busy_s"], m["yelt.occurrences"])
	m["yelt.spill_s"] = busy["yelt.spill"]
	m["yelt.spill_mib_per_s"] = ratio(m["yelt.spill_bytes"]/(1<<20), busy["yelt.spill"])
	m["yelt.scan_s"] = busy["yelt.scan"]
	m["yelt.scan_mib_per_s"] = ratio(m["yelt.spill_bytes"]/(1<<20), busy["yelt.scan"])

	// The engine's own time: its span less the generator's share of each
	// worker when the reads are fused into it. (The span's plain self
	// time, which subtracts the union of the reads, is in the trace
	// dump; it shrinks when workers happen to read at different moments,
	// so it is not used as the layer's figure.)
	m["aggregate.busy_s"] = busy["aggregate"]
	if reads := childrenOf(spans, engine.ID); len(reads) > 0 {
		var fused float64
		for _, s := range reads {
			fused += s.seconds()
		}
		m["aggregate.busy_s"] -= fused / float64(workers)
	}
	m["aggregate.ns_per_occ"] = 1e9 * ratio(m["aggregate.busy_s"], m["yelt.occurrences"])
	m["aggregate.trials_per_s"] = ratio(m["aggregate.trials"], m["aggregate.busy_s"])

	m["dfa.busy_s"] = busy["dfa"]
	m["dfa.ns_per_trial"] = 1e9 * ratio(busy["dfa"], m["aggregate.trials"])
	m["metrics.busy_s"] = busy["metrics"]
	m["metrics.ns_per_trial"] = 1e9 * ratio(busy["metrics"], 2*m["aggregate.trials"]) // two summaries
	m["warehouse.build_s"] = m["warehouse.fold_s"] + busy["warehouse.finalize"]
	delete(m, "warehouse.fold_s")

	layers := childrenOf(spans, root.ID)
	var attributed float64
	for _, s := range layers {
		attributed += s.seconds()
	}
	m["core.self_s"] = selfSeconds(root, layers)
	if untracedWall > 0 {
		m["core.unattributed_share"] = (untracedWall - attributed) / untracedWall
		m["trace.overhead_share"] = root.seconds()/untracedWall - 1
	}
	return m
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank percentile: with fewer than twenty
// values the 95th is the largest.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return s[max(int(math.Ceil(p*float64(len(s)))), 1)-1]
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

// medianOf is the key-wise median of several passes' metrics.
func medianOf(passes []map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	if len(passes) == 0 {
		return out
	}
	for k := range passes[0] {
		vs := make([]float64, len(passes))
		for i, p := range passes {
			vs[i] = p[k]
		}
		out[k] = median(vs)
	}
	return out
}
