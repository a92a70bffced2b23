// Command benchtables regenerates the tables for the experiments E1–E9
// in EXPERIMENTS.md — the quantitative claims of Varghese & Rau-Chaplin
// (SC 2012) reproduced on this machine.
//
// Usage:
//
//	benchtables [-e all|1,2,...] [-quick] [-workers N] [-seed S]
//
// E10–E18 measured this repo's own extensions. Their tables are frozen
// in EXPERIMENTS.md; what they claimed is measured by the repo benchmark
// (go run ./bench) and held by tests, both named per experiment in the
// removed table below.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/aggregate"
	"repro/internal/cliflags"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/gpusim"
	"repro/internal/layers"
	"repro/internal/lossindex"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/internal/yelt"
	"repro/internal/ylt"
)

func devDefault() gpusim.Config { return gpusim.DefaultConfig() }

// singleContract builds a one-contract portfolio view over a scenario.
func singleContract(s *synth.Scenario, i int) *layers.Portfolio {
	return &layers.Portfolio{Contracts: []layers.Contract{{
		ID:       s.Portfolio.Contracts[i].ID,
		ELTIndex: 0,
		Layers:   s.Portfolio.Contracts[i].Layers,
	}}}
}

var (
	flagExperiments = flag.String("e", "all", "experiments to run: 'all' or comma list like '1,4,5'")
	flagQuick       = flag.Bool("quick", false, "smaller sizes for a fast smoke run")
	flagSeed        = uint64(42) // -seed, bound in main
	flagWorkers     int          // -workers, bound in main
)

// runners maps an experiment's number to its table. It is the one
// place the set of experiments is written down: "-e all" and the
// validity of "-e N" both derive from its keys.
var runners = map[int]func(context.Context) error{
	1: e1Speedup, 2: e2RealtimePricing, 3: e3DataVolumes,
	4: e4Chunking, 5: e5ScanVsRandom, 6: e6MemoryVsMapReduce,
	7: e7Elasticity, 8: e8TrialsSweep, 9: e9DFA,
}

// removed maps the number of an experiment whose table was deleted to
// the commit that last ran it and to what measures or holds its claim
// now, so "-e N" can say more than "unknown".
var removed = map[int]struct{ lastRun, now string }{
	10: {"c38e85b", "bench workload trial-sampled (aggregate.peak_resident_bytes, peak_rss_mib), TestStreamingPeakResidentBytes"},
	11: {"c38e85b", "bench workload spill-expected (yelt.spill_s, yelt.scan_s, mapreduce.map_busy_s), TestMapReduceEquivalenceMatrix"},
	12: {"8b424c6", "the kernels it compared are gone; TestGoldenYLTDigest, TestKernelEquivalenceAllEngines"},
	13: {"8b424c6", "the kernels it compared are gone; TestReinstKernelEquivalence"},
	14: {"8b424c6", "the kernels it compared are gone; TestKernelEquivalenceAcrossBlockSizes; the device arena is gone, TestChunkedOnePassTransfers"},
	15: {"c38e85b", "bench workload quote-serve (op_p50_ms, serve.closed_qps, serve.closed_p99_ms, serve.rejected), TestQuoteQueueFullFast429"},
	16: {"c38e85b", "bench workload spill-expected (mapreduce.local_share), TestPlacementEquivalenceAndByteAccounting"},
	17: {"c38e85b", "bench workload spill-expected (yelt.failovers, mapreduce.map_retries, mapreduce.spec_launched), TestFaultEquivalenceMatrix"},
	18: {"c38e85b", "bench workload quote-serve (warehouse.build_s, warehouse.query_us, serve.cube_p50_us), TestIncrementalMatchesBatch"},
}

// selectExperiments resolves the -e flag against the runners table:
// "all" is every key, otherwise a comma list of keys. The result is
// sorted and free of duplicates.
func selectExperiments(spec string) ([]int, error) {
	want := map[int]bool{}
	if spec == "all" {
		for k := range runners {
			want[k] = true
		}
	} else {
		for _, tok := range strings.Split(spec, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return nil, fmt.Errorf("bad experiment %q", tok)
			}
			if runners[n] == nil {
				if r, ok := removed[n]; ok {
					return nil, fmt.Errorf("experiment %d was removed (last run at %s; see EXPERIMENTS.md); now: %s", n, r.lastRun, r.now)
				}
				return nil, fmt.Errorf("unknown experiment %d", n)
			}
			want[n] = true
		}
	}
	keys := make([]int, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys, nil
}

func main() {
	cliflags.Seed(&flagSeed)
	cliflags.Workers(&flagWorkers)
	flag.Parse()
	ctx := context.Background()

	keys, err := selectExperiments(*flagExperiments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("# benchtables — %d logical CPUs, quick=%v, seed=%d\n\n",
		runtime.NumCPU(), *flagQuick, flagSeed)

	for _, k := range keys {
		if err := runners[k](ctx); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: E%d: %v\n", k, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func scenario(ctx context.Context, trials int, occOnly bool) (*synth.Scenario, error) {
	return synth.Build(ctx, scenarioParams(trials, occOnly))
}

// scenarioParams sizes the experiments' book: the full or, with -quick,
// the smaller one.
func scenarioParams(trials int, occOnly bool) synth.Params {
	p := synth.Params{
		Seed:                 flagSeed,
		NumEvents:            10_000,
		NumContracts:         16,
		LocationsPerContract: 250,
		NumTrials:            trials,
		MeanEventsPerYear:    10,
		OccurrenceOnly:       occOnly,
		TwoLayers:            true,
		Workers:              flagWorkers,
	}
	if *flagQuick {
		p.NumEvents = 2_000
		p.NumContracts = 6
		p.LocationsPerContract = 100
	}
	return p
}

func aggInput(s *synth.Scenario) *aggregate.Input {
	return &aggregate.Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio}
}

// E1 — parallel aggregate analysis vs the sequential baseline (the
// paper reports 15× for its GPU engine vs sequential CPU). Every
// Parallel run's portfolio YLT must equal Sequential's bit for bit, and
// the chunked device kernel's the naive one's.
func e1Speedup(ctx context.Context) error {
	trials := 200_000
	if *flagQuick {
		trials = 20_000
	}
	fmt.Printf("## E1 — aggregate-analysis speedup vs sequential (%d trials, sampling on)\n", trials)
	s, err := scenario(ctx, trials, false)
	if err != nil {
		return err
	}
	in := aggInput(s)
	// Pre-build the shared index so no engine's timing window pays the
	// pre-join that the others then reuse.
	if _, err := in.EnsureIndex(); err != nil {
		return err
	}

	t0 := time.Now()
	seq, err := (aggregate.Sequential{}).Run(ctx, in, aggregate.Config{Seed: 1, Sampling: true})
	if err != nil {
		return err
	}
	seqDur := time.Since(t0)
	fmt.Printf("%-22s %12s %10s\n", "engine", "time", "speedup")
	fmt.Printf("%-22s %12v %10s\n", "sequential", seqDur.Round(time.Millisecond), "1.0x")

	for _, w := range []int{1, 2, 4, runtime.NumCPU()} {
		t0 = time.Now()
		par, err := (aggregate.Parallel{}).Run(ctx, in, aggregate.Config{Seed: 1, Sampling: true, Workers: w})
		if err != nil {
			return err
		}
		d := time.Since(t0)
		if err := sameYLT(seq.Portfolio, par.Portfolio); err != nil {
			return fmt.Errorf("Parallel (%d workers) differs from Sequential: %w", w, err)
		}
		fmt.Printf("%-22s %12v %9.1fx\n", fmt.Sprintf("parallel (%d workers)", w),
			d.Round(time.Millisecond), float64(seqDur)/float64(d))
	}

	// Device-modeled comparison (the paper's actual GPU-vs-CPU shape):
	// modeled chunked device time vs a single-SM global-only device.
	sOcc, err := scenario(ctx, trials/4, true)
	if err != nil {
		return err
	}
	chunked, naive1, err := deviceKernels(ctx, aggInput(sOcc))
	if err != nil {
		return err
	}
	devCfg := devDefault()
	chunkSec := chunked.LastStats.ModeledSeconds(devCfg)
	oneSM := devCfg
	oneSM.NumSMs = 1
	scalarSec := naive1.LastStats.ModeledSeconds(oneSM)
	fmt.Printf("%-22s %12s %9.1fx   (cost-model cycles: many-core chunked vs 1-SM scalar)\n",
		"device model", fmtSec(chunkSec), scalarSec/chunkSec)
	return nil
}

// E2 — the million-trial single-contract quote (paper: ~25 s,
// real-time pricing). Parallel's portfolio YLT must equal Sequential's
// bit for bit.
func e2RealtimePricing(ctx context.Context) error {
	trials := 1_000_000
	if *flagQuick {
		trials = 100_000
	}
	fmt.Printf("## E2 — 1M-trial single-contract aggregate simulation (paper: ~25 s on 2012 GPU)\n")
	s, err := scenario(ctx, 1000, false) // trials replaced below
	if err != nil {
		return err
	}
	y, err := yelt.Generate(ctx, s.Catalog, yelt.Config{NumTrials: trials, Workers: flagWorkers}, flagSeed+5)
	if err != nil {
		return err
	}
	in := &aggregate.Input{
		YELT:      y,
		ELTs:      s.ELTs[:1],
		Portfolio: singleContract(s, 0),
	}
	if _, err := in.EnsureIndex(); err != nil {
		return err
	}
	var seq *ylt.Table
	for _, eng := range []aggregate.Engine{aggregate.Sequential{}, aggregate.Parallel{}} {
		t0 := time.Now()
		res, err := eng.Run(ctx, in, aggregate.Config{Seed: 2, Sampling: true, Workers: flagWorkers})
		if err != nil {
			return err
		}
		d := time.Since(t0)
		if seq == nil {
			seq = res.Portfolio
		} else if err := sameYLT(seq, res.Portfolio); err != nil {
			return fmt.Errorf("Parallel differs from Sequential: %w", err)
		}
		sum, err := metrics.Summarize(res.Portfolio)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %d trials in %10v  (%.0f trials/s)  AAL=%.0f TVaR99=%.0f\n",
			eng.Name(), trials, d.Round(time.Millisecond),
			float64(trials)/d.Seconds(), sum.AAL, sum.TVaR99)
	}
	return nil
}

// E3 — the YELLT/YELT/YLT data-volume arithmetic.
func e3DataVolumes(ctx context.Context) error {
	fmt.Printf("## E3 — data volumes (paper: YELLT 5×10^16 entries; YELT 1000× smaller; YLT 1000× smaller again)\n")
	m := yelt.PaperScale()
	fmt.Printf("paper scale: %d contracts × %d events × %d locations × %d trials\n",
		m.Contracts, m.Events, m.Locations, m.Trials)
	fmt.Printf("%-28s %14.3g entries\n", "dense YELLT (paper formula)", m.DenseYELLTEntries())
	fmt.Printf("%-28s %14.3g entries  (%s at 16 B/entry)\n", "occurrence YELLT",
		m.YELLTEntries(), yelt.HumanBytes(yelt.Bytes(m.YELLTEntries(), 16)))
	fmt.Printf("%-28s %14.3g entries  (%s at %d B/entry)\n", "YELT",
		m.YELTEntries(), yelt.HumanBytes(yelt.Bytes(m.YELTEntries(), yelt.EntryBytes)), yelt.EntryBytes)
	fmt.Printf("%-28s %14.3g entries  (%s at 8 B/entry)\n", "YLT",
		m.YLTEntries(), yelt.HumanBytes(yelt.Bytes(m.YLTEntries(), 8)))
	r1, r2 := m.Ratios()
	fmt.Printf("ratios: YELLT/YELT = %.0f, YELT/YLT = %.0f\n", r1, r2)

	trials := 100_000
	if *flagQuick {
		trials = 10_000
	}
	s, err := scenario(ctx, trials, false)
	if err != nil {
		return err
	}
	// The pre-joined loss index is the layout the engines actually scan:
	// report its build cost and footprint next to the YELT/YLT volumes.
	t0 := time.Now()
	idx, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		return err
	}
	idxBuild := time.Since(t0)
	in := aggInput(s)
	in.Index = idx
	res, err := (aggregate.Parallel{}).Run(ctx, in, aggregate.Config{Workers: flagWorkers})
	if err != nil {
		return err
	}
	fmt.Printf("measured (this run): YELT %d occurrences = %s; YLT %d trials = %s; ratio %.0f\n",
		s.YELT.Len(), yelt.HumanBytes(float64(s.YELT.SizeBytes())),
		res.Portfolio.NumTrials(), yelt.HumanBytes(float64(res.Portfolio.SizeBytes())),
		float64(s.YELT.SizeBytes())/float64(res.Portfolio.SizeBytes()))
	fmt.Printf("loss index (pre-joined ELTs): %d events, %d entries = %s, built in %v\n",
		idx.NumRows(), idx.NumEntries(), yelt.HumanBytes(float64(idx.SizeBytes())),
		idxBuild.Round(time.Microsecond))
	return nil
}

// E4 — the chunking ablation on the simulated device. The chunked
// kernel's portfolio YLT must equal the naive one's bit for bit.
func e4Chunking(ctx context.Context) error {
	trials := 50_000
	if *flagQuick {
		trials = 10_000
	}
	fmt.Printf("## E4 — shared-memory chunking ablation: ELT chunks staged per block (modeled device cycles, %d trials)\n", trials)
	s, err := scenario(ctx, trials, true)
	if err != nil {
		return err
	}
	devCfg := devDefault()
	chunked, naive, err := deviceKernels(ctx, aggInput(s))
	if err != nil {
		return err
	}
	c, n := chunked.LastStats, naive.LastStats
	fmt.Printf("%-16s %16s %16s %14s %12s\n", "kernel", "block cycles", "global accesses", "shared acc.", "modeled time")
	fmt.Printf("%-16s %16d %16d %14d %12s\n", "naive-global", n.BlockCycles, n.GlobalAccesses, n.SharedAccesses, fmtSec(n.ModeledSeconds(devCfg)))
	fmt.Printf("%-16s %16d %16d %14d %12s\n", "chunked-shared", c.BlockCycles, c.GlobalAccesses, c.SharedAccesses, fmtSec(c.ModeledSeconds(devCfg)))
	fmt.Printf("chunking advantage: %.1fx fewer block cycles\n", float64(n.BlockCycles)/float64(c.BlockCycles))
	return nil
}

// E5 — scan-oriented access vs random access, on the shipped engines.
// The random-access path is aggregate.LegacyLookup, one ELT binary
// search per (occurrence × contract); the scan path is
// aggregate.Sequential over the pre-joined loss index, whose index and
// flat build is inside its timing. Record reads are counted from the
// data, not by either engine (e5RecordReads). The two portfolio YLTs
// must agree bit for bit.
func e5ScanVsRandom(ctx context.Context) error {
	trials := 200_000
	if *flagQuick {
		trials = 30_000
	}
	fmt.Printf("## E5 — sequential scan vs ELT random access (%d trials, expected mode)\n", trials)
	s, err := scenario(ctx, trials, false)
	if err != nil {
		return err
	}
	in := aggInput(s)
	cfg := aggregate.Config{} // expected mode

	t0 := time.Now()
	random, err := (aggregate.LegacyLookup{}).Run(ctx, in, cfg)
	if err != nil {
		return err
	}
	randDur := time.Since(t0)

	// LegacyLookup reads no index, so the scan's build starts here.
	t0 = time.Now()
	flat, err := in.EnsureFlat()
	if err != nil {
		return err
	}
	scan, err := (aggregate.Sequential{}).Run(ctx, in, cfg)
	if err != nil {
		return err
	}
	scanDur := time.Since(t0)
	if err := sameYLT(random.Portfolio, scan.Portfolio); err != nil {
		return fmt.Errorf("Sequential differs from LegacyLookup: %w", err)
	}

	randReads, scanReads := e5RecordReads(s, flat)
	n := float64(len(s.YELT.Occs))
	fmt.Printf("%-22s %12s %14s %16s\n", "access path", "time", "record reads", "occurrences/s")
	fmt.Printf("%-22s %12v %14d %16.0f\n", "random (LegacyLookup)", randDur.Round(time.Microsecond), randReads, n/randDur.Seconds())
	fmt.Printf("%-22s %12v %14d %16.0f\n", "scan (Sequential)", scanDur.Round(time.Microsecond), scanReads, n/scanDur.Seconds())
	fmt.Printf("scan advantage: %.1fx faster, %.1fx fewer record reads; the two YLTs agree in every bit\n",
		randDur.Seconds()/scanDur.Seconds(), float64(randReads)/float64(scanReads))
	return nil
}

// e5RecordReads counts the records each E5 path reads. A binary search
// of an n-record ELT reads bits.Len(n) of them, once per (occurrence ×
// contract); the scan reads the event's index row and its packed
// entries, once per occurrence.
func e5RecordReads(s *synth.Scenario, flat *lossindex.Flat) (random, scan int64) {
	var perOcc int64
	for _, c := range s.Portfolio.Contracts {
		perOcc += int64(bits.Len(uint(len(s.ELTs[c.ELTIndex].Records))))
	}
	for _, event := range s.YELT.Occs {
		lo, hi := flat.Span(event)
		scan += int64(1 + hi - lo)
	}
	return perOcc * int64(len(s.YELT.Occs)), scan
}

// E6 — in-memory analytics vs MapReduce over distributed files, with
// the memory budget deciding the crossover. Both columns run a shipped
// engine over one book in expected mode: Parallel over the materialized
// table, and MapReduce over the same table spilled to shards on disk
// (the spill is inside its timing; generation is outside both). The two
// portfolio YLTs must agree bit for bit wherever both ran.
func e6MemoryVsMapReduce(ctx context.Context) error {
	fmt.Printf("## E6 — in-memory Parallel vs MapReduce over spilled shards (one book, expected mode)\n")
	sizes := []int{20_000, 100_000, 400_000}
	if *flagQuick {
		// The two largest sizes still span four or more shards each, so
		// MapReduce's resident peak is flat on up to four workers.
		sizes = []int{10_000, 100_000, 200_000}
	}
	s, err := scenario(ctx, 1000, false)
	if err != nil {
		return err
	}
	book := aggInput(s)
	if _, err := book.EnsureFlat(); err != nil {
		return err
	}
	tables := make([]*yelt.Table, len(sizes))
	for i, trials := range sizes {
		if tables[i], err = yelt.Generate(ctx, s.Catalog, yelt.Config{NumTrials: trials, Workers: flagWorkers}, flagSeed+9); err != nil {
			return err
		}
	}
	// The budget lies between the two largest tables, so only the
	// largest no longer fits — the scaled analogue of the paper's
	// "<1 TB in memory" boundary.
	n := len(tables)
	budget := (tables[n-2].SizeBytes() + tables[n-1].SizeBytes()) / 2
	fmt.Printf("memory budget: %s\n", yelt.HumanBytes(float64(budget)))
	fmt.Printf("%-10s %14s %12s %14s %12s\n", "trials", "in-memory", "resident", "mapreduce", "resident")

	cfg := aggregate.Config{Workers: flagWorkers}
	for i, y := range tables {
		in := *book
		in.YELT = y
		memCell, memPeak := "EXCEEDS BUDGET", ""
		var mem *aggregate.Result
		if y.SizeBytes() <= budget {
			t0 := time.Now()
			if mem, err = (aggregate.Parallel{}).Run(ctx, &in, cfg); err != nil {
				return err
			}
			memCell = time.Since(t0).Round(time.Millisecond).String()
			memPeak = yelt.HumanBytes(float64(mem.PeakResidentBytes))
		}
		mr, mrDur, err := e6MapReduce(ctx, &in, cfg)
		if err != nil {
			return err
		}
		if mem != nil {
			if err := sameYLT(mem.Portfolio, mr.Portfolio); err != nil {
				return fmt.Errorf("%d trials: MapReduce differs from Parallel: %w", sizes[i], err)
			}
		}
		fmt.Printf("%-10d %14s %12s %14s %12s\n", sizes[i], memCell, memPeak,
			mrDur.Round(time.Millisecond), yelt.HumanBytes(float64(mr.PeakResidentBytes)))
	}
	return nil
}

// e6MapReduce spills in's table to DefaultSpillParts shards in a
// temporary directory and runs MapReduce over them, timing both.
func e6MapReduce(ctx context.Context, in *aggregate.Input, cfg aggregate.Config) (*aggregate.Result, time.Duration, error) {
	dir, err := os.MkdirTemp("", "e6-*")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	ds, err := yelt.SpillToDir(ctx, in.YELT, dir, 0, aggregate.DefaultSpillParts(in.YELT.NumTrials), 1, cfg.Workers)
	if err != nil {
		return nil, 0, err
	}
	spilled := *in
	spilled.YELT, spilled.Source = nil, ds
	res, err := (aggregate.MapReduce{}).Run(ctx, &spilled, cfg)
	return res, time.Since(t0), err
}

// sameYLT reports the first trial at which two YLTs differ in any bit.
func sameYLT(a, b *ylt.Table) error {
	if len(a.Agg) != len(b.Agg) || len(a.OccMax) != len(b.OccMax) {
		return fmt.Errorf("%d trials vs %d", len(a.Agg), len(b.Agg))
	}
	for i := range a.Agg {
		if math.Float64bits(a.Agg[i]) != math.Float64bits(b.Agg[i]) ||
			math.Float64bits(a.OccMax[i]) != math.Float64bits(b.OccMax[i]) {
			return fmt.Errorf("trial %d: (%v, %v) vs (%v, %v)", i, a.Agg[i], a.OccMax[i], b.Agg[i], b.OccMax[i])
		}
	}
	return nil
}

// deviceKernels runs the chunked and the naive device kernel over in,
// one pass each, and holds the chunked portfolio YLT to the naive one
// bit for bit: the two differ in memory traffic, not in arithmetic.
func deviceKernels(ctx context.Context, in *aggregate.Input) (chunked, naive *aggregate.Chunked, err error) {
	chunked, naive = &aggregate.Chunked{}, &aggregate.Chunked{Naive: true}
	c, err := chunked.Run(ctx, in, aggregate.Config{})
	if err != nil {
		return nil, nil, err
	}
	n, err := naive.Run(ctx, in, aggregate.Config{})
	if err != nil {
		return nil, nil, err
	}
	if err := sameYLT(n.Portfolio, c.Portfolio); err != nil {
		return nil, nil, fmt.Errorf("chunked device kernel differs from the naive one: %w", err)
	}
	return chunked, naive, nil
}

// E7 — elastic vs static provisioning, measured on the pipeline: one
// book runs through core.Pipeline three times, under an elastic policy
// capped above every stage's demand, a static fleet as wide as the
// widest stage the elastic run provisioned, and one processor. Stage 2
// runs the MapReduce engine, so its busy column is measured map-task
// time. Every column comes from the runs' stage reports, and the three
// runs' catastrophe and enterprise tables must agree bit for bit.
func e7Elasticity(ctx context.Context) error {
	trials := 1_000_000
	if *flagQuick {
		trials = 300_000
	}
	book := scenarioParams(trials, false)
	cfg := core.DefaultConfig()
	cfg.Seed = book.Seed
	cfg.NumEvents, cfg.NumContracts, cfg.LocationsPerContract = book.NumEvents, book.NumContracts, book.LocationsPerContract
	cfg.MeanEventsPerYear, cfg.NumTrials, cfg.TwoLayers = book.MeanEventsPerYear, book.NumTrials, book.TwoLayers
	cfg.Engine = aggregate.MapReduce{}
	// Busy is summed task wall time, so above GOMAXPROCS workers it can
	// exceed what the cores supplied; the header says how many there were.
	fmt.Printf("## E7 — elastic vs static provisioning of the pipeline (%d contracts, %d trials, mapreduce, GOMAXPROCS %d)\n",
		cfg.NumContracts, cfg.NumTrials, runtime.GOMAXPROCS(0))
	fmt.Printf("%-14s %10s %14s %12s %12s   %s\n", "policy", "makespan", "billed proc-s", "busy proc-s", "utilization", "workers per stage")

	elastic, widest, err := e7Run(ctx, cfg, cluster.Elastic{Max: 64})
	if err != nil {
		return err
	}
	for _, policy := range []cluster.Policy{cluster.Static{N: widest}, cluster.Static{N: 1}} {
		p, _, err := e7Run(ctx, cfg, policy)
		if err != nil {
			return err
		}
		if err := sameYLT(elastic.CatYLT, p.CatYLT); err != nil {
			return fmt.Errorf("%s: catastrophe table differs from the elastic run's: %w", policy.Name(), err)
		}
		if err := sameYLT(elastic.DFAResult.Enterprise, p.DFAResult.Enterprise); err != nil {
			return fmt.Errorf("%s: enterprise table differs from the elastic run's: %w", policy.Name(), err)
		}
	}
	return nil
}

// e7Run runs the pipeline under policy, prints its row of stage-report
// totals, and returns the pipeline and its widest stage's worker count.
func e7Run(ctx context.Context, cfg core.Config, policy cluster.Policy) (*core.Pipeline, int, error) {
	cfg.Provision = policy
	p := core.New(cfg)
	if _, err := p.Run(ctx); err != nil {
		return nil, 0, err
	}
	var makespan time.Duration
	var billed, busy float64
	var widest int
	var workers []string
	for _, st := range p.Stages {
		makespan += st.Duration
		billed += st.AllocatedProcSecs
		busy += st.BusyProcSecs
		if st.Workers > 0 {
			widest = max(widest, st.Workers)
			workers = append(workers, fmt.Sprintf("%s %d", st.Name, st.Workers))
		}
	}
	fmt.Printf("%-14s %10s %14.2f %12.2f %11.1f%%   %s\n", policy.Name(),
		makespan.Round(time.Millisecond), billed, busy, 100*busy/billed, strings.Join(workers, ", "))
	return p, widest, nil
}

// E8 — runtime vs trial count: the weekly-vs-real-time scaling. At each
// count Parallel's portfolio YLT must equal Sequential's bit for bit.
func e8TrialsSweep(ctx context.Context) error {
	fmt.Printf("## E8 — runtime scaling with trial count (weekly batch vs real-time)\n")
	sweep := []int{1_000, 10_000, 100_000, 1_000_000}
	if *flagQuick {
		sweep = []int{1_000, 10_000, 50_000}
	}
	s, err := scenario(ctx, 1000, false)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %14s %14s %16s\n", "trials", "sequential", "parallel", "par trials/s")
	for _, trials := range sweep {
		y, err := yelt.Generate(ctx, s.Catalog, yelt.Config{NumTrials: trials, Workers: flagWorkers}, flagSeed+11)
		if err != nil {
			return err
		}
		in := &aggregate.Input{YELT: y, ELTs: s.ELTs, Portfolio: s.Portfolio}
		if _, err := in.EnsureIndex(); err != nil {
			return err
		}
		t0 := time.Now()
		seqRes, err := (aggregate.Sequential{}).Run(ctx, in, aggregate.Config{Sampling: true, Seed: 3})
		if err != nil {
			return err
		}
		seq := time.Since(t0)
		t0 = time.Now()
		parRes, err := (aggregate.Parallel{}).Run(ctx, in, aggregate.Config{Sampling: true, Seed: 3, Workers: flagWorkers})
		if err != nil {
			return err
		}
		par := time.Since(t0)
		if err := sameYLT(seqRes.Portfolio, parRes.Portfolio); err != nil {
			return fmt.Errorf("%d trials: Parallel differs from Sequential: %w", trials, err)
		}
		fmt.Printf("%-12d %14v %14v %16.0f\n", trials,
			seq.Round(time.Millisecond), par.Round(time.Millisecond),
			float64(trials)/par.Seconds())
	}
	return nil
}

// E9 — DFA integration: data volume and runtime vs number of risk
// sources, plus the PML/TVaR report that flows to ERM.
func e9DFA(ctx context.Context) error {
	trials := 200_000
	if *flagQuick {
		trials = 50_000
	}
	fmt.Printf("## E9 — DFA integration across K risk sources (%d trials)\n", trials)
	s, err := scenario(ctx, trials, false)
	if err != nil {
		return err
	}
	res, err := (aggregate.Parallel{}).Run(ctx, aggInput(s), aggregate.Config{Workers: flagWorkers})
	if err != nil {
		return err
	}
	cat := res.Portfolio

	fmt.Printf("%-10s %14s %16s %16s\n", "sources", "time", "total data", "TVaR99")
	for _, k := range []int{2, 6, 12, 24} {
		sources := make([]dfa.Source, 0, k)
		base := dfa.StandardSources(cat.Mean())
		for len(sources) < k {
			sources = append(sources, base[len(sources)%len(base)])
		}
		ig := &dfa.Integrator{Sources: sources}
		t0 := time.Now()
		dres, err := ig.Run(ctx, cat, dfa.Config{Seed: 7, Rho: 0.2, Workers: flagWorkers, KeepPerSource: true})
		if err != nil {
			return err
		}
		d := time.Since(t0)
		tv, err := metrics.TVaR(dres.Enterprise.Agg, 0.99)
		if err != nil {
			return err
		}
		fmt.Printf("%-10d %14v %16s %16.0f\n", k, d.Round(time.Millisecond),
			yelt.HumanBytes(float64(dres.TotalBytes)), tv)
	}

	sum, err := metrics.Summarize(cat)
	if err != nil {
		return err
	}
	fmt.Printf("\ncatastrophe book metrics (PML/TVaR as reported to regulators):\n%s", sum)
	return nil
}

func fmtSec(s float64) string {
	switch {
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	case s < 120:
		return fmt.Sprintf("%.2fs", s)
	default:
		return fmt.Sprintf("%.1fh", s/3600)
	}
}
