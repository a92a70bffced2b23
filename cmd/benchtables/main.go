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
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/aggregate"
	"repro/internal/cliflags"
	"repro/internal/cluster"
	"repro/internal/dfa"
	"repro/internal/diskstore"
	"repro/internal/gpusim"
	"repro/internal/layers"
	"repro/internal/lossindex"
	"repro/internal/mapreduce"
	"repro/internal/memstore"
	"repro/internal/metrics"
	"repro/internal/rdbms"
	"repro/internal/synth"
	"repro/internal/yelt"
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
	14: {"8b424c6", "the kernels it compared are gone; TestKernelEquivalenceAcrossBlockSizes, TestChunkedResidentUploadOnce"},
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
	return synth.Build(ctx, p)
}

func aggInput(s *synth.Scenario) *aggregate.Input {
	return &aggregate.Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio}
}

// E1 — parallel aggregate analysis vs the sequential baseline (the
// paper reports 15× for its GPU engine vs sequential CPU).
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
	if _, err := (aggregate.Sequential{}).Run(ctx, in, aggregate.Config{Seed: 1, Sampling: true}); err != nil {
		return err
	}
	seqDur := time.Since(t0)
	fmt.Printf("%-22s %12s %10s\n", "engine", "time", "speedup")
	fmt.Printf("%-22s %12v %10s\n", "sequential", seqDur.Round(time.Millisecond), "1.0x")

	for _, w := range []int{1, 2, 4, runtime.NumCPU()} {
		t0 = time.Now()
		if _, err := (aggregate.Parallel{}).Run(ctx, in, aggregate.Config{Seed: 1, Sampling: true, Workers: w}); err != nil {
			return err
		}
		d := time.Since(t0)
		fmt.Printf("%-22s %12v %9.1fx\n", fmt.Sprintf("parallel (%d workers)", w),
			d.Round(time.Millisecond), float64(seqDur)/float64(d))
	}

	// Device-modeled comparison (the paper's actual GPU-vs-CPU shape):
	// modeled chunked device time vs a single-SM global-only device.
	sOcc, err := scenario(ctx, trials/4, true)
	if err != nil {
		return err
	}
	inOcc := aggInput(sOcc)
	chunked := &aggregate.Chunked{}
	if _, err := chunked.Run(ctx, inOcc, aggregate.Config{}); err != nil {
		return err
	}
	devCfg := devDefault()
	chunkSec := chunked.LastStats.ModeledSeconds(devCfg)
	naive1 := &aggregate.Chunked{Naive: true}
	if _, err := naive1.Run(ctx, inOcc, aggregate.Config{}); err != nil {
		return err
	}
	oneSM := devCfg
	oneSM.NumSMs = 1
	scalarSec := naive1.LastStats.ModeledSeconds(oneSM)
	fmt.Printf("%-22s %12s %9.1fx   (cost-model cycles: many-core chunked vs 1-SM scalar)\n",
		"device model", fmtSec(chunkSec), scalarSec/chunkSec)
	return nil
}

// E2 — the million-trial single-contract quote (paper: ~25 s,
// real-time pricing).
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
	for _, eng := range []aggregate.Engine{aggregate.Sequential{}, aggregate.Parallel{}} {
		t0 := time.Now()
		res, err := eng.Run(ctx, in, aggregate.Config{Seed: 2, Sampling: true, Workers: flagWorkers})
		if err != nil {
			return err
		}
		d := time.Since(t0)
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

// E4 — the chunking ablation on the simulated device.
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
	in := aggInput(s)
	devCfg := devDefault()

	chunked := &aggregate.Chunked{}
	if _, err := chunked.Run(ctx, in, aggregate.Config{}); err != nil {
		return err
	}
	naive := &aggregate.Chunked{Naive: true}
	if _, err := naive.Run(ctx, in, aggregate.Config{}); err != nil {
		return err
	}
	c, n := chunked.LastStats, naive.LastStats
	fmt.Printf("%-16s %16s %16s %14s %12s\n", "kernel", "block cycles", "global accesses", "shared acc.", "modeled time")
	fmt.Printf("%-16s %16d %16d %14d %12s\n", "naive-global", n.BlockCycles, n.GlobalAccesses, n.SharedAccesses, fmtSec(n.ModeledSeconds(devCfg)))
	fmt.Printf("%-16s %16d %16d %14d %12s\n", "chunked-shared", c.BlockCycles, c.GlobalAccesses, c.SharedAccesses, fmtSec(c.ModeledSeconds(devCfg)))
	fmt.Printf("chunking advantage: %.1fx fewer block cycles\n", float64(n.BlockCycles)/float64(c.BlockCycles))
	return nil
}

// E5 — scan-oriented access vs indexed random access (the RDBMS
// baseline the paper dismisses).
func e5ScanVsRandom(ctx context.Context) error {
	trials := 200_000
	if *flagQuick {
		trials = 30_000
	}
	fmt.Printf("## E5 — sequential scan vs B-tree random access (%d trial-year lookups)\n", trials)
	s, err := scenario(ctx, trials, false)
	if err != nil {
		return err
	}
	// Load the portfolio loss vector into the row store.
	tbl, err := rdbms.New(1, 64)
	if err != nil {
		return err
	}
	loss := map[uint64]float64{}
	for _, e := range s.ELTs {
		for _, r := range e.Records {
			loss[uint64(r.EventID)] += r.MeanLoss
		}
	}
	for k, v := range loss {
		if err := tbl.Insert(k, []float64{v}); err != nil {
			return err
		}
	}

	// Random access: one indexed Get per YELT occurrence.
	tbl.ResetStats()
	t0 := time.Now()
	var sumRand float64
	for _, occ := range s.YELT.Occs {
		if v, ok := tbl.Get(uint64(occ.EventID)); ok {
			sumRand += v[0]
		}
	}
	randDur := time.Since(t0)
	randPages := tbl.Stats().PageReads

	// Scan: one pass accumulating the same aggregate via a dense
	// event-occurrence count (how scan-oriented engines do it).
	counts := make([]float64, maxEvent(s)+1)
	for _, occ := range s.YELT.Occs {
		counts[occ.EventID]++
	}
	tbl.ResetStats()
	t0 = time.Now()
	var sumScan float64
	if err := tbl.Scan(func(k uint64, vals []float64) error {
		sumScan += vals[0] * counts[k]
		return nil
	}); err != nil {
		return err
	}
	scanDur := time.Since(t0)
	scanPages := tbl.Stats().PageReads

	n := float64(len(s.YELT.Occs))
	fmt.Printf("%-16s %12s %14s %16s\n", "access path", "time", "page reads", "occurrences/s")
	fmt.Printf("%-16s %12v %14d %16.0f\n", "random (B-tree)", randDur.Round(time.Microsecond), randPages, n/randDur.Seconds())
	fmt.Printf("%-16s %12v %14d %16.0f\n", "sequential scan", scanDur.Round(time.Microsecond), scanPages, n/scanDur.Seconds())
	fmt.Printf("scan advantage: %.1fx faster, %.0fx fewer page touches (agreement: %.6g vs %.6g)\n",
		randDur.Seconds()/scanDur.Seconds(), float64(randPages)/float64(scanPages), sumRand, sumScan)
	return nil
}

func maxEvent(s *synth.Scenario) uint32 {
	var m uint32
	for _, o := range s.YELT.Occs {
		if o.EventID > m {
			m = o.EventID
		}
	}
	return m
}

// E6 — in-memory analytics vs MapReduce over distributed files, with
// the memory budget deciding the crossover.
func e6MemoryVsMapReduce(ctx context.Context) error {
	fmt.Printf("## E6 — in-memory vs distributed-file MapReduce (per-trial aggregation)\n")
	sizes := []int{20_000, 100_000, 400_000}
	if *flagQuick {
		sizes = []int{10_000, 50_000}
	}
	// Budget sized so the largest dataset no longer fits — the scaled
	// analogue of the paper's "<1 TB in memory" boundary.
	budget := int64(sizes[len(sizes)-1]) * 10 * 12 / 2
	fmt.Printf("memory budget: %s\n", yelt.HumanBytes(float64(budget)))
	fmt.Printf("%-12s %16s %16s\n", "trials", "in-memory", "mapreduce")

	s, err := scenario(ctx, 1000, false)
	if err != nil {
		return err
	}
	lossVec := portfolioLossVec(s)

	for _, trials := range sizes {
		y, err := yelt.Generate(ctx, s.Catalog, yelt.Config{NumTrials: trials, Workers: flagWorkers}, flagSeed+9)
		if err != nil {
			return err
		}
		memCell, memErr := e6InMemory(ctx, y, lossVec, budget)
		mrCell, err := e6MapReduce(ctx, y, lossVec)
		if err != nil {
			return err
		}
		memStr := memCell
		if memErr != nil {
			memStr = "EXCEEDS BUDGET"
		}
		fmt.Printf("%-12d %16s %16s\n", trials, memStr, mrCell)
	}
	return nil
}

func portfolioLossVec(s *synth.Scenario) []float64 {
	var maxID uint32
	for _, e := range s.ELTs {
		if n := e.Len(); n > 0 && e.Records[n-1].EventID > maxID {
			maxID = e.Records[n-1].EventID
		}
	}
	vec := make([]float64, maxID+1)
	for _, e := range s.ELTs {
		for _, r := range e.Records {
			vec[r.EventID] += r.MeanLoss
		}
	}
	return vec
}

func e6InMemory(ctx context.Context, y *yelt.Table, lossVec []float64, budget int64) (string, error) {
	arena := memstore.NewArena(budget)
	tbl := memstore.NewTable(memstore.Schema{
		Float64Cols: []string{"loss"},
		Uint32Cols:  []string{"trial"},
	}, arena, 1<<15)
	t0 := time.Now()
	for trial := 0; trial < y.NumTrials; trial++ {
		for _, occ := range y.OccurrencesOf(trial) {
			var l float64
			if int(occ.EventID) < len(lossVec) {
				l = lossVec[occ.EventID]
			}
			if err := tbl.Append([]float64{l}, []uint32{uint32(trial)}); err != nil {
				tbl.Release()
				return "", err
			}
		}
	}
	sums := make([]float64, y.NumTrials)
	err := tbl.Scan(func(v memstore.ChunkView) error {
		for i := 0; i < v.Rows(); i++ {
			sums[v.U32[0][i]] += v.F64[0][i]
		}
		return nil
	})
	tbl.Release()
	if err != nil {
		return "", err
	}
	return time.Since(t0).Round(time.Millisecond).String(), nil
}

func e6MapReduce(ctx context.Context, y *yelt.Table, lossVec []float64) (string, error) {
	dir, err := os.MkdirTemp("", "e6-*")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	store, err := diskstore.Create(dir, 4)
	if err != nil {
		return "", err
	}
	t0 := time.Now()
	const parts = 16
	per := (y.NumTrials + parts - 1) / parts
	type split struct{ part, lo int }
	var splits []split
	for p := 0; p < parts; p++ {
		lo, hi := p*per, (p+1)*per
		if hi > y.NumTrials {
			hi = y.NumTrials
		}
		if lo >= hi {
			break
		}
		sub, err := y.Slice(lo, hi)
		if err != nil {
			return "", err
		}
		if err := store.WritePartition("yelt", p, func(w io.Writer) error {
			_, err := sub.WriteTo(w)
			return err
		}); err != nil {
			return "", err
		}
		splits = append(splits, split{p, lo})
	}
	// Each map task returns its split's per-trial sums; the commit
	// places them in the one per-trial slice.
	sums := make([]float64, y.NumTrials)
	err = mapreduce.Run(ctx, splits,
		func(_ context.Context, sp split) ([]float64, error) {
			var out []float64
			err := store.ReadPartition("yelt", sp.part, func(r io.Reader) error {
				sub, err := yelt.Read(r)
				if err != nil {
					return err
				}
				out = make([]float64, sub.NumTrials)
				for trial := range out {
					for _, occ := range sub.OccurrencesOf(trial) {
						if int(occ.EventID) < len(lossVec) {
							out[trial] += lossVec[occ.EventID]
						}
					}
				}
				return nil
			})
			return out, err
		},
		func(i int, trialSums []float64, _ bool, _ time.Duration) { copy(sums[splits[i].lo:], trialSums) },
		mapreduce.Config{Mappers: flagWorkers})
	if err != nil {
		return "", err
	}
	return time.Since(t0).Round(time.Millisecond).String(), nil
}

// E7 — elastic vs static provisioning over the pipeline's bursty
// demand profile.
func e7Elasticity(_ context.Context) error {
	fmt.Printf("## E7 — bursty processor demand: stage 1 <10 procs, stages 2-3 thousands\n")
	phases := cluster.PipelinePhases(3600) // one processor-hour of stage-1 work
	results, err := cluster.Compare(phases, []cluster.Policy{
		cluster.Static{N: 8},
		cluster.Static{N: 5000},
		cluster.Elastic{Max: 5000},
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %14s %18s %14s\n", "policy", "makespan", "proc-hours billed", "utilization")
	for _, r := range results {
		fmt.Printf("%-18s %14s %18.1f %13.1f%%\n", r.Policy,
			fmtSec(r.Makespan), r.AllocatedSecs/3600, 100*r.Utilization)
	}
	return nil
}

// E8 — runtime vs trial count: the weekly-vs-real-time scaling.
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
		if _, err := (aggregate.Sequential{}).Run(ctx, in, aggregate.Config{Sampling: true, Seed: 3}); err != nil {
			return err
		}
		seq := time.Since(t0)
		t0 = time.Now()
		if _, err := (aggregate.Parallel{}).Run(ctx, in, aggregate.Config{Sampling: true, Seed: 3, Workers: flagWorkers}); err != nil {
			return err
		}
		par := time.Since(t0)
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
