// Command benchtables regenerates the tables for the experiments
// E1–E11 and E15–E18 in EXPERIMENTS.md — the quantitative claims of
// Varghese & Rau-Chaplin (SC 2012) reproduced on this machine, plus the
// streaming-stage-2 memory envelope (E10), the partitioned
// (spill + MapReduce) stage 2 (E11), the
// real-time quote serving tier under calm/active/burst load (E15),
// the locality-aware distributed stage 2 — shard-affine mapper
// placement × process topology plus elastic provisioning (E16) — and
// the fault-tolerant stage 2: deterministic chaos over replicated
// shards with retries, replica failover, and speculation (E17), and
// the incrementally-built, delta-updatable warehouse cube with served
// queries (E18).
//
// Usage:
//
//	benchtables [-e all|1,2,...] [-quick] [-workers N] [-seed S] [-json FILE]
//
// -json additionally writes the run's measurements as a
// machine-readable document (ns/op, bytes, speedups per experiment
// row) — the format CI tracks as the BENCH_TABLES.json artifact.
//
// E12–E14 compared trial-kernel generations that no longer exist; their
// tables are frozen in EXPERIMENTS.md and reproducible at 8b424c6.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/aggregate"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/diskstore"
	"repro/internal/faultinject"
	"repro/internal/gpusim"
	"repro/internal/layers"
	"repro/internal/lossindex"
	"repro/internal/mapreduce"
	"repro/internal/memstore"
	"repro/internal/metrics"
	"repro/internal/rdbms"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
	"repro/internal/synth"
	"repro/internal/warehouse"
	"repro/internal/yelt"
	"repro/internal/ylt"
	"repro/risk"
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
	flagWorkers     = flag.Int("workers", 0, "worker bound (0 = all cores)")
	flagSeed        = flag.Uint64("seed", 42, "master seed")
	flagJSON        = flag.String("json", "", "also write machine-readable results to this file")
)

// benchRecord is one machine-readable measurement of a benchtables
// run — a row of the -json document CI tracks across commits.
type benchRecord struct {
	Experiment string  `json:"experiment"`
	Name       string  `json:"name"`
	NsPerOp    float64 `json:"ns_per_op"`
	Bytes      int64   `json:"bytes,omitempty"`
	Speedup    float64 `json:"speedup,omitempty"`
}

// benchRecords starts non-nil so a -json run over experiments that
// record nothing still writes "results": [] rather than null.
var benchRecords = []benchRecord{}

// record appends one measurement to the -json document (cheap enough
// to call unconditionally; the document is only written when -json is
// set).
func record(exp, name string, d time.Duration, bytes int64, speedup float64) {
	benchRecords = append(benchRecords, benchRecord{
		Experiment: exp, Name: name,
		NsPerOp: float64(d.Nanoseconds()),
		Bytes:   bytes, Speedup: speedup,
	})
}

func writeJSON(path string) error {
	doc := struct {
		CPUs    int           `json:"cpus"`
		Quick   bool          `json:"quick"`
		Seed    uint64        `json:"seed"`
		Results []benchRecord `json:"results"`
	}{runtime.NumCPU(), *flagQuick, *flagSeed, benchRecords}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runners maps an experiment's number to its table. It is the one
// place the set of experiments is written down: "-e all" and the
// validity of "-e N" both derive from its keys.
var runners = map[int]func(context.Context) error{
	1: e1Speedup, 2: e2RealtimePricing, 3: e3DataVolumes,
	4: e4Chunking, 5: e5ScanVsRandom, 6: e6MemoryVsMapReduce,
	7: e7Elasticity, 8: e8TrialsSweep, 9: e9DFA,
	10: e10StreamingEnvelope,
	11: e11PartitionedStage2,
	15: e15QuoteService,
	16: e16LocalityPlacement,
	17: e17FaultTolerance,
	18: e18WarehouseCube,
}

// selectExperiments resolves the -e flag against the runners table:
// "all" is every key, otherwise a comma list of keys. The result is
// sorted and free of duplicates. A number inside the table's range
// that has no runner names an experiment that was removed.
func selectExperiments(spec string) ([]int, error) {
	want := map[int]bool{}
	if spec == "all" {
		for k := range runners {
			want[k] = true
		}
	} else {
		last := 0
		for k := range runners {
			last = max(last, k)
		}
		for _, tok := range strings.Split(spec, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			switch {
			case err != nil:
				return nil, fmt.Errorf("bad experiment %q", tok)
			case runners[n] != nil:
				want[n] = true
			case n >= 1 && n <= last:
				return nil, fmt.Errorf("unknown experiment %d (removed; see EXPERIMENTS.md)", n)
			default:
				return nil, fmt.Errorf("unknown experiment %d", n)
			}
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
	flag.Parse()
	ctx := context.Background()

	keys, err := selectExperiments(*flagExperiments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("# benchtables — %d logical CPUs, quick=%v, seed=%d\n\n",
		runtime.NumCPU(), *flagQuick, *flagSeed)

	for _, k := range keys {
		if err := runners[k](ctx); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: E%d: %v\n", k, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if *flagJSON != "" {
		if err := writeJSON(*flagJSON); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: writing %s: %v\n", *flagJSON, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d results to %s\n", len(benchRecords), *flagJSON)
	}
}

func scenario(ctx context.Context, trials int, occOnly bool) (*synth.Scenario, error) {
	p := synth.Params{
		Seed:                 *flagSeed,
		NumEvents:            10_000,
		NumContracts:         16,
		LocationsPerContract: 250,
		NumTrials:            trials,
		MeanEventsPerYear:    10,
		OccurrenceOnly:       occOnly,
		TwoLayers:            true,
		Workers:              *flagWorkers,
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
	y, err := yelt.Generate(ctx, s.Catalog, yelt.Config{NumTrials: trials, Workers: *flagWorkers}, *flagSeed+5)
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
		res, err := eng.Run(ctx, in, aggregate.Config{Seed: 2, Sampling: true, Workers: *flagWorkers})
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
	res, err := (aggregate.Parallel{}).Run(ctx, in, aggregate.Config{Workers: *flagWorkers})
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
	fmt.Printf("## E4 — shared/constant-memory chunking ablation (modeled device cycles, %d trials)\n", trials)
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
		y, err := yelt.Generate(ctx, s.Catalog, yelt.Config{NumTrials: trials, Workers: *flagWorkers}, *flagSeed+9)
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
	type split struct{ part, lo, hi int }
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
		splits = append(splits, split{p, lo, hi})
	}
	sum := func(_ uint64, vs []float64) (float64, error) {
		var s float64
		for _, v := range vs {
			s += v
		}
		return s, nil
	}
	_, err = mapreduce.Run(ctx, splits,
		func(_ context.Context, sp split, emit func(uint64, float64)) error {
			return store.ReadPartition("yelt", sp.part, func(r io.Reader) error {
				sub, err := yelt.Read(r)
				if err != nil {
					return err
				}
				for trial := 0; trial < sub.NumTrials; trial++ {
					var s float64
					for _, occ := range sub.OccurrencesOf(trial) {
						if int(occ.EventID) < len(lossVec) {
							s += lossVec[occ.EventID]
						}
					}
					emit(uint64(sp.lo+trial), s)
				}
				return nil
			})
		},
		sum, sum, mapreduce.Config{Mappers: *flagWorkers, Reducers: 4})
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
		y, err := yelt.Generate(ctx, s.Catalog, yelt.Config{NumTrials: trials, Workers: *flagWorkers}, *flagSeed+11)
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
		if _, err := (aggregate.Parallel{}).Run(ctx, in, aggregate.Config{Sampling: true, Seed: 3, Workers: *flagWorkers}); err != nil {
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
	res, err := (aggregate.Parallel{}).Run(ctx, aggInput(s), aggregate.Config{Workers: *flagWorkers})
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
		dres, err := ig.Run(ctx, cat, dfa.Config{Seed: 7, Rho: 0.2, Workers: *flagWorkers, KeepPerSource: true})
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

// E10 — bounded-memory streaming stage 2: fuse YELT generation into
// the aggregate engine and compare the memory envelope (and runtime)
// against materializing the table first. Results are bit-identical by
// construction (per-trial RNG substreams); the table printed here is
// the memory-envelope claim of the streaming refactor.
func e10StreamingEnvelope(ctx context.Context) error {
	trials := 1_000_000
	if *flagQuick {
		trials = 100_000
	}
	fmt.Printf("## E10 — streaming stage 2 memory envelope (%d trials, parallel engine)\n", trials)
	s, err := scenario(ctx, 1000, false)
	if err != nil {
		return err
	}
	idx, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		return err
	}
	// Distinct generation (+7) and sampling (+13) seed offsets, like
	// every other stage-2 call site: sharing one substream would replay
	// the event-draw uniforms as severity draws.
	acfg := aggregate.Config{Seed: *flagSeed + 13, Sampling: true, Workers: *flagWorkers}
	ycfg := yelt.Config{NumTrials: trials, Workers: *flagWorkers}

	// Materialized: pre-simulate, then aggregate (generation included in
	// the timing — the comparison is end-to-end stage 2).
	t0 := time.Now()
	y, err := yelt.Generate(ctx, s.Catalog, ycfg, *flagSeed+7)
	if err != nil {
		return err
	}
	matIn := &aggregate.Input{YELT: y, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: idx}
	matRes, err := (aggregate.Parallel{}).Run(ctx, matIn, acfg)
	if err != nil {
		return err
	}
	matDur := time.Since(t0)

	// Streaming: fused generation, bounded batches.
	gen, err := yelt.NewGenerator(s.Catalog, ycfg, *flagSeed+7)
	if err != nil {
		return err
	}
	t0 = time.Now()
	strIn := &aggregate.Input{Source: gen, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: idx}
	strRes, err := (aggregate.Parallel{}).Run(ctx, strIn, acfg)
	if err != nil {
		return err
	}
	strDur := time.Since(t0)

	fmt.Printf("%-14s %12s %16s %14s\n", "stage-2 mode", "time", "resident trials", "trials/s")
	fmt.Printf("%-14s %12v %16s %14.0f\n", "materialized", matDur.Round(time.Millisecond),
		yelt.HumanBytes(float64(matRes.PeakResidentBytes)), float64(trials)/matDur.Seconds())
	fmt.Printf("%-14s %12v %16s %14.0f\n", "streaming", strDur.Round(time.Millisecond),
		yelt.HumanBytes(float64(strRes.PeakResidentBytes)), float64(trials)/strDur.Seconds())
	fmt.Printf("memory envelope: %.0fx below the materialized YELT\n",
		float64(matRes.PeakResidentBytes)/float64(strRes.PeakResidentBytes))
	record("E10", "materialized", matDur, matRes.PeakResidentBytes, 0)
	record("E10", "streaming", strDur, strRes.PeakResidentBytes,
		float64(matRes.PeakResidentBytes)/float64(strRes.PeakResidentBytes))
	for t := 0; t < trials; t++ {
		if matRes.Portfolio.Agg[t] != strRes.Portfolio.Agg[t] || matRes.Portfolio.OccMax[t] != strRes.Portfolio.OccMax[t] {
			return fmt.Errorf("E10: streaming diverged from materialized at trial %d", t)
		}
	}
	fmt.Printf("equivalence: all %d trials bit-identical across modes\n", trials)
	return nil
}

// E11 — partitioned stage 2: the MapReduce engine over the three trial
// sources, completing the memory/compute trade the streaming refactor
// opened. Re-derive regenerates trials per mapper read (CPU for
// memory); re-scan generates once, spills trial-range shards into a
// diskstore, and re-reads them (disk for CPU); materialized holds the
// whole table resident (memory for everything). All three are
// bit-identical by construction; the table is the trade.
func e11PartitionedStage2(ctx context.Context) error {
	trials := 1_000_000
	if *flagQuick {
		trials = 100_000
	}
	fmt.Printf("## E11 — partitioned stage 2: re-derive vs re-scan vs materialized (%d trials, mapreduce engine)\n", trials)
	s, err := scenario(ctx, 1000, false)
	if err != nil {
		return err
	}
	idx, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		return err
	}
	eng := aggregate.MapReduce{}
	acfg := aggregate.Config{Seed: *flagSeed + 13, Sampling: true, Workers: *flagWorkers}
	ycfg := yelt.Config{NumTrials: trials, Workers: *flagWorkers}

	// Materialized: pre-simulate the table, then map over its views
	// (generation included — the comparison is end-to-end stage 2).
	t0 := time.Now()
	y, err := yelt.Generate(ctx, s.Catalog, ycfg, *flagSeed+7)
	if err != nil {
		return err
	}
	matRes, err := eng.Run(ctx, &aggregate.Input{YELT: y, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: idx}, acfg)
	if err != nil {
		return err
	}
	matDur := time.Since(t0)

	// Re-derive: mappers regenerate their trial ranges on demand.
	gen, err := yelt.NewGenerator(s.Catalog, ycfg, *flagSeed+7)
	if err != nil {
		return err
	}
	t0 = time.Now()
	derRes, err := eng.Run(ctx, &aggregate.Input{Source: gen, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: idx}, acfg)
	if err != nil {
		return err
	}
	derDur := time.Since(t0)

	// Re-scan: generate once into diskstore shards, mappers re-read.
	dir, err := os.MkdirTemp("", "e11-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	genSpill, err := yelt.NewGenerator(s.Catalog, ycfg, *flagSeed+7)
	if err != nil {
		return err
	}
	t0 = time.Now()
	ds, err := yelt.SpillToDir(ctx, genSpill, dir, 0, aggregate.DefaultSpillParts(trials), 1, *flagWorkers)
	if err != nil {
		return err
	}
	spillDur := time.Since(t0)
	spillBytes, err := ds.SizeBytes()
	if err != nil {
		return err
	}
	t0 = time.Now()
	scanRes, err := eng.Run(ctx, &aggregate.Input{Source: ds, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: idx}, acfg)
	if err != nil {
		return err
	}
	scanDur := time.Since(t0)

	fmt.Printf("spill: %d shards on %d nodes, %s written in %v (%.0f trials/s)\n",
		ds.Shards(), ds.Nodes(), yelt.HumanBytes(float64(spillBytes)),
		spillDur.Round(time.Millisecond), float64(trials)/spillDur.Seconds())
	fmt.Printf("%-14s %12s %16s %14s\n", "trial source", "time", "resident trials", "trials/s")
	fmt.Printf("%-14s %12v %16s %14.0f\n", "materialized", matDur.Round(time.Millisecond),
		yelt.HumanBytes(float64(matRes.PeakResidentBytes)), float64(trials)/matDur.Seconds())
	fmt.Printf("%-14s %12v %16s %14.0f\n", "re-derive", derDur.Round(time.Millisecond),
		yelt.HumanBytes(float64(derRes.PeakResidentBytes)), float64(trials)/derDur.Seconds())
	fmt.Printf("%-14s %12v %16s %14.0f   (+%v spill write, %s on disk)\n", "re-scan", scanDur.Round(time.Millisecond),
		yelt.HumanBytes(float64(scanRes.PeakResidentBytes)), float64(trials)/scanDur.Seconds(),
		spillDur.Round(time.Millisecond), yelt.HumanBytes(float64(spillBytes)))
	record("E11", "materialized", matDur, matRes.PeakResidentBytes, 0)
	record("E11", "re-derive", derDur, derRes.PeakResidentBytes, 0)
	record("E11", "re-scan", scanDur, scanRes.PeakResidentBytes, 0)
	for t := 0; t < trials; t++ {
		if matRes.Portfolio.Agg[t] != derRes.Portfolio.Agg[t] || matRes.Portfolio.Agg[t] != scanRes.Portfolio.Agg[t] ||
			matRes.Portfolio.OccMax[t] != derRes.Portfolio.OccMax[t] || matRes.Portfolio.OccMax[t] != scanRes.Portfolio.OccMax[t] {
			return fmt.Errorf("E11: sources diverged at trial %d", t)
		}
	}
	fmt.Printf("equivalence: all %d trials bit-identical across the three sources\n", trials)
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

// e15QuoteService runs the real-time quote serving tier end to end: a
// warmed serve.Server over a shared risk.Study, driven by closed-loop
// load in three phases — calm (half the pool), active (pool-sized) and
// burst (several times pool+queue, so admission control must shed
// 429s) — then drained gracefully. The paper's claim under test is
// that per-contract aggregate simulation is fast enough for real-time
// pricing (§II); the serving tier adds the operational half: bounded
// queueing keeps served latency flat under overload instead of letting
// it collapse.
func e15QuoteService(ctx context.Context) error {
	events, contracts, locs := 2_000, 8, 150
	studyTrials, quoteTrials := 5_000, 2_000
	perClient := 6
	if *flagQuick {
		events, contracts, locs = 600, 4, 60
		studyTrials, quoteTrials = 1_200, 500
		perClient = 3
	}
	pool := runtime.GOMAXPROCS(0)
	if *flagWorkers > 0 {
		pool = *flagWorkers
	}
	queue := pool // tight: burst must shed, not buffer

	fmt.Printf("## E15 — real-time quote service (%d contracts, %d-trial quotes, pool %d, queue %d)\n",
		contracts, quoteTrials, pool, queue)

	study := risk.NewStudy(risk.Config{
		Seed:                 *flagSeed,
		Events:               events,
		Contracts:            contracts,
		LocationsPerContract: locs,
		Trials:               studyTrials,
		MeanEventsPerYear:    10,
		Rho:                  0.2,
		// Single-threaded per quote: the pool supplies the parallelism.
		Workers: 1,
	})
	srv := serve.New(study, serve.Config{
		Workers:       pool,
		QueueDepth:    queue,
		Timeout:       time.Minute,
		DefaultTrials: quoteTrials,
	})
	t0 := time.Now()
	if err := srv.Warm(ctx); err != nil {
		return err
	}
	warmDur := time.Since(t0)
	fmt.Printf("%-10s %12v  (stage 1 + %d per-contract quote layouts)\n", "warm-up", warmDur.Round(time.Millisecond), contracts)
	record("E15", "warm", warmDur, 0, 0)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	clamp := func(n int) int {
		if n < 1 {
			return 1
		}
		return n
	}
	phases := []loadgen.Phase{
		{Name: "calm", Clients: clamp(pool / 2), Trials: quoteTrials, Contracts: contracts},
		{Name: "active", Clients: pool, Trials: quoteTrials, Contracts: contracts},
		{Name: "burst", Clients: 4 * (pool + queue), Trials: quoteTrials, Contracts: contracts},
	}
	for i := range phases {
		phases[i].Requests = phases[i].Clients * perClient
	}
	results, err := loadgen.Run(ctx, ts.Client(), ts.URL, phases)
	if err != nil {
		return err
	}

	fmt.Printf("%-10s %6s %6s %6s %6s %6s %10s %10s %8s\n",
		"phase", "sent", "ok", "429", "503", "err", "p50", "p99", "ok/s")
	for _, r := range results {
		fmt.Printf("%-10s %6d %6d %6d %6d %6d %10v %10v %8.1f\n",
			r.Phase, r.Sent, r.OK, r.Rejected, r.Unavail, r.Errors,
			r.P50.Round(100*time.Microsecond), r.P99.Round(100*time.Microsecond), r.QPS)
		record("E15", r.Phase+"/p50", r.P50, 0, 0)
		record("E15", r.Phase+"/p99", r.P99, 0, r.QPS)
	}
	if burst := results[len(results)-1]; burst.Rejected == 0 {
		fmt.Printf("note: burst shed no load — pool drained %d clients without filling the queue\n", 4*(pool+queue))
	}

	// Graceful retirement: stop admitting, stop the HTTP layer, drain
	// the pool. The drain time bounds what a SIGTERM costs in flight.
	t0 = time.Now()
	srv.BeginDrain()
	ts.Close()
	if err := srv.Drain(ctx); err != nil {
		return err
	}
	drainDur := time.Since(t0)
	fmt.Printf("%-10s %12v\n", "drain", drainDur.Round(time.Millisecond))
	record("E15", "drain", drainDur, 0, 0)
	return nil
}

// e16LocalityPlacement measures the locality-aware distributed stage 2.
// One spill commits the trial shards across a multi-node diskstore;
// then the MapReduce engine sweeps mapper placement (location-blind vs
// shard-affine) against process topology (fused — the spilling
// process's own source handle — vs two-process — a fresh
// diskstore.Open + manifest re-attach, exactly what `riskpipeline
// -mode aggregate` sees). Every cell must be bit-identical to the
// sequential engine over the materialized table; the columns that may
// differ are time and where the bytes came from: shard-affine
// placement schedules each mapper on the storage node holding its
// split, so the scan is node-local, while blind placement pulls
// ~1/nodes of the bytes locally by accident. A second table runs the
// real pipeline under parsed provisioning policies and reports each
// stage's allocated-vs-busy processor time — the §II elasticity story
// measured, not simulated.
func e16LocalityPlacement(ctx context.Context) error {
	trials := 1_000_000
	if *flagQuick {
		trials = 100_000
	}
	nodes := yelt.DefaultSpillNodes
	parts := aggregate.DefaultSpillParts(trials)
	if parts < 8*nodes {
		// Keep every node's lane deep enough that placement, not shard
		// scarcity, decides locality.
		parts = 8 * nodes
	}
	// A locality measurement needs mappers homed on every storage node:
	// a fleet smaller than the node count leaves unmanned lanes whose
	// every byte is a steal, measuring host size rather than placement.
	// Workers are goroutines, so oversubscribing small hosts is fine.
	workers := *flagWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 2*nodes {
		workers = 2 * nodes
	}
	fmt.Printf("## E16 — locality-aware stage 2: placement × topology (%d trials, %d shards on %d storage nodes, %d mappers)\n",
		trials, parts, nodes, workers)
	s, err := scenario(ctx, 1000, false)
	if err != nil {
		return err
	}
	idx, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		return err
	}
	acfg := aggregate.Config{Seed: *flagSeed + 13, Sampling: true, Workers: workers}
	ycfg := yelt.Config{NumTrials: trials, Workers: *flagWorkers}

	// Spill once; every cell scans the same committed shards.
	dir, err := os.MkdirTemp("", "e16-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	gen, err := yelt.NewGenerator(s.Catalog, ycfg, *flagSeed+7)
	if err != nil {
		return err
	}
	t0 := time.Now()
	fused, err := yelt.SpillToDir(ctx, gen, dir, nodes, parts, 1, *flagWorkers)
	if err != nil {
		return err
	}
	spillDur := time.Since(t0)
	spillBytes, err := fused.SizeBytes()
	if err != nil {
		return err
	}
	fmt.Printf("spill: %d shards on %d nodes, %s written in %v\n",
		fused.Shards(), fused.Nodes(), yelt.HumanBytes(float64(spillBytes)), spillDur.Round(time.Millisecond))

	// Reference for per-cell bit-equivalence: the sequential engine
	// over the materialized table.
	y, err := yelt.Generate(ctx, s.Catalog, ycfg, *flagSeed+7)
	if err != nil {
		return err
	}
	want, err := aggregate.Sequential{}.Run(ctx,
		&aggregate.Input{YELT: y, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: idx}, acfg)
	if err != nil {
		return err
	}

	// The two-process handoff: a fresh store handle re-attached through
	// the spill manifest, as a separate aggregate process would open it.
	store, err := diskstore.Open(dir)
	if err != nil {
		return err
	}
	attached, err := yelt.OpenDiskSource(store, "yelt")
	if err != nil {
		return err
	}

	cells := []struct {
		topo  string
		src   *yelt.DiskSource
		place aggregate.Placement
	}{
		{"fused", fused, aggregate.PlaceBlind},
		{"fused", fused, aggregate.PlaceAffine},
		{"two-process", attached, aggregate.PlaceBlind},
		{"two-process", attached, aggregate.PlaceAffine},
	}
	fmt.Printf("%-12s %-10s %10s %12s %12s %12s %8s\n",
		"topology", "placement", "time", "trials/s", "local", "remote", "local%")
	affineWorst := 1.0
	for _, c := range cells {
		eng := aggregate.MapReduce{Placement: c.place}
		t0 = time.Now()
		res, err := eng.Run(ctx,
			&aggregate.Input{Source: c.src, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: idx}, acfg)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", c.topo, c.place, err)
		}
		dur := time.Since(t0)
		for t := 0; t < trials; t++ {
			if res.Portfolio.Agg[t] != want.Portfolio.Agg[t] || res.Portfolio.OccMax[t] != want.Portfolio.OccMax[t] {
				return fmt.Errorf("E16: %s/%s diverged from sequential at trial %d", c.topo, c.place, t)
			}
		}
		total := res.LocalBytes + res.RemoteBytes
		frac := 0.0
		if total > 0 {
			frac = float64(res.LocalBytes) / float64(total)
		}
		if c.place == aggregate.PlaceAffine && frac < affineWorst {
			affineWorst = frac
		}
		name := fmt.Sprintf("%s/%s", c.topo, c.place)
		fmt.Printf("%-12s %-10s %10v %12.0f %12s %12s %7.1f%%\n",
			c.topo, c.place, dur.Round(time.Millisecond), float64(trials)/dur.Seconds(),
			yelt.HumanBytes(float64(res.LocalBytes)), yelt.HumanBytes(float64(res.RemoteBytes)), 100*frac)
		record("E16", name, dur, total, frac)
		record("E16", name+"/local-bytes", dur, res.LocalBytes, 0)
		record("E16", name+"/remote-bytes", dur, res.RemoteBytes, 0)
	}
	fmt.Printf("equivalence: all 4 cells bit-identical to the sequential engine (%d trials)\n", trials)
	if affineWorst < 0.9 {
		return fmt.Errorf("E16: shard-affine placement scanned only %.1f%% node-local, want >= 90%%", 100*affineWorst)
	}
	fmt.Printf("locality: shard-affine placement >= %.1f%% node-local in every topology\n", 100*affineWorst)

	// Elastic provisioning in the real pipeline: each stage asks for
	// its exploitable parallelism, the policy decides the allocation,
	// and the stage report carries the resulting bill.
	pipeTrials := 100_000
	if *flagQuick {
		pipeTrials = 20_000
	}
	fmt.Printf("\nprovisioned pipeline (%d trials, spilled stage 2, shard-affine mapreduce):\n", pipeTrials)
	for _, ps := range []string{"static:8", "elastic:8"} {
		policy, err := cluster.ParsePolicy(ps)
		if err != nil {
			return err
		}
		cfg := core.Config{
			Seed:                 *flagSeed,
			NumEvents:            2_000,
			NumContracts:         8,
			LocationsPerContract: 100,
			MeanEventsPerYear:    10,
			NumTrials:            pipeTrials,
			Engine:               aggregate.MapReduce{Placement: aggregate.PlaceAffine},
			Sampling:             true,
			Spill:                true,
			SpillNodes:           nodes,
			Rho:                  0.25,
			Workers:              *flagWorkers,
			TwoLayers:            true,
			Provision:            policy,
		}
		rep, err := core.New(cfg).Run(ctx)
		if err != nil {
			return fmt.Errorf("provision %s: %w", ps, err)
		}
		var alloc, busy float64
		fmt.Printf("%-11s %-16s %10s %8s %12s %12s %6s\n",
			"policy", "stage", "time", "workers", "alloc-psec", "busy-psec", "util")
		for _, st := range rep.Stages {
			if st.Workers == 0 {
				continue // sub-stage lines carry no worker accounting
			}
			util := 0.0
			if st.AllocatedProcSecs > 0 {
				util = st.BusyProcSecs / st.AllocatedProcSecs
			}
			alloc += st.AllocatedProcSecs
			busy += st.BusyProcSecs
			fmt.Printf("%-11s %-16s %10v %8d %12.3f %12.3f %6.2f\n",
				ps, st.Name, st.Duration.Round(time.Millisecond), st.Workers,
				st.AllocatedProcSecs, st.BusyProcSecs, util)
			record("E16", fmt.Sprintf("provision/%s/%s", ps, st.Name), st.Duration, 0, util)
		}
		fmt.Printf("%-11s %-16s %10s %8s %12.3f %12.3f %6.2f\n",
			ps, "total", "", "", alloc, busy, busy/alloc)
	}
	return nil
}

// e17FaultTolerance measures the fault-tolerant distributed stage 2.
// One scenario spills its trial stream twice — unreplicated and r=2
// chained-declustering replicas — and the MapReduce engine re-runs the
// same aggregation under escalating deterministic chaos: injected
// shard-read failure rates, a dead-on-arrival storage node, and an
// injected straggler with speculative re-execution. Every surviving
// cell must be bit-identical to the fault-free sequential run — faults
// may only move time and the recovery counters, never values. The
// table reports the absorbed chaos (map retries, replica failovers,
// speculative backups, lost workers) and the completion-time overhead
// against the clean cell at the same replication factor.
func e17FaultTolerance(ctx context.Context) error {
	trials := 400_000
	if *flagQuick {
		trials = 50_000
	}
	nodes := yelt.DefaultSpillNodes
	parts := aggregate.DefaultSpillParts(trials)
	if parts < 4*nodes {
		parts = 4 * nodes
	}
	// Node kills need survivors with spare lanes, and speculation needs
	// idle workers to run backups; oversubscription is cheap.
	workers := *flagWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 2*nodes {
		workers = 2 * nodes
	}
	fmt.Printf("## E17 — fault-tolerant stage 2: chaos × replication (%d trials, %d shards on %d storage nodes, %d mappers)\n",
		trials, parts, nodes, workers)
	s, err := scenario(ctx, trials, false)
	if err != nil {
		return err
	}
	idx, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		return err
	}
	acfg := aggregate.Config{Seed: *flagSeed + 13, Sampling: true, Workers: workers}
	want, err := aggregate.Sequential{}.Run(ctx,
		&aggregate.Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: idx}, acfg)
	if err != nil {
		return err
	}

	// Spill once per replication factor; cells at the same r scan the
	// same committed shards.
	ycfg := yelt.Config{NumTrials: trials, Workers: *flagWorkers}
	sources := map[int]*yelt.DiskSource{}
	for _, r := range []int{1, 2} {
		dir, err := os.MkdirTemp("", fmt.Sprintf("e17-r%d-*", r))
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		gen, err := yelt.NewGenerator(s.Catalog, ycfg, *flagSeed+7)
		if err != nil {
			return err
		}
		ds, err := yelt.SpillToDir(ctx, gen, dir, nodes, parts, r, *flagWorkers)
		if err != nil {
			return err
		}
		bytes, err := ds.SizeBytes()
		if err != nil {
			return err
		}
		fmt.Printf("spill r=%d: %d shards on %d nodes, %s committed\n",
			r, ds.Shards(), ds.Nodes(), yelt.HumanBytes(float64(bytes)))
		sources[r] = ds
	}

	cells := []struct {
		name      string
		replicas  int
		spec      string
		speculate bool
	}{
		{"clean", 1, "", false},
		{"clean", 2, "", false},
		{"first-read-fails", 1, "shard=*@1", false},
		{"rate=0.05", 2, "rate=0.05", false},
		{"rate=0.10", 2, "rate=0.10", false},
		{"rate+kill", 2, "rate=0.10,kill=1@1", false},
		{"straggler+spec", 2, "delay=0@40ms", true},
	}
	fmt.Printf("%-18s %2s %10s %12s %8s %9s %9s %10s %6s %9s\n",
		"chaos", "r", "time", "trials/s", "retries", "failover", "spec/won", "lost", "ovhd", "verified")
	clean := map[int]time.Duration{}
	for _, c := range cells {
		plan, err := faultinject.Parse(c.spec, *flagSeed)
		if err != nil {
			return err
		}
		eng := aggregate.MapReduce{MaxAttempts: 5, Speculate: c.speculate, Faults: plan}
		t0 := time.Now()
		res, err := eng.Run(ctx,
			&aggregate.Input{Source: sources[c.replicas], ELTs: s.ELTs, Portfolio: s.Portfolio, Index: idx}, acfg)
		if err != nil {
			return fmt.Errorf("%s/r%d: %w", c.name, c.replicas, err)
		}
		dur := time.Since(t0)
		for t := 0; t < trials; t++ {
			if res.Portfolio.Agg[t] != want.Portfolio.Agg[t] || res.Portfolio.OccMax[t] != want.Portfolio.OccMax[t] {
				return fmt.Errorf("E17: %s/r%d diverged from fault-free sequential at trial %d", c.name, c.replicas, t)
			}
		}
		if c.spec == "" {
			clean[c.replicas] = dur
		}
		ovhd := 0.0
		if base := clean[c.replicas]; base > 0 {
			ovhd = dur.Seconds() / base.Seconds()
		}
		fmt.Printf("%-18s %2d %10v %12.0f %8d %9d %5d/%-3d %10d %5.2fx %9s\n",
			c.name, c.replicas, dur.Round(time.Millisecond), float64(trials)/dur.Seconds(),
			res.MapRetries, res.ShardFailovers, res.SpecLaunched, res.SpecWins,
			res.WorkersLost, ovhd, "bit-eq")
		name := fmt.Sprintf("%s/r%d", c.name, c.replicas)
		record("E17", name, dur, 0, ovhd)
		record("E17", name+"/retries", dur, res.MapRetries, 0)
		record("E17", name+"/failovers", dur, res.ShardFailovers, 0)
		record("E17", name+"/workers-lost", dur, res.WorkersLost, 0)
	}
	fmt.Printf("equivalence: all %d cells bit-identical to the fault-free sequential engine (%d trials)\n",
		len(cells), trials)
	return nil
}

// e18WarehouseCube measures the incremental warehouse cube end to
// end. Build cost: batch Build over the finished per-contract tables
// vs an incremental Builder fed the same trials in streamed batches
// (what the pipeline's warehouse stage does), gated on bit-identical
// cubes. Delta re-pricing: Replace of one contract's YLT vs a full
// rebuild, again bit-identical. Serving: /v1/cube query latency
// (dictionary lookup of a pre-computed summary) vs check=direct
// (re-combining the cell from the registry) vs a direct per-contract
// quote simulation — the paper's pre-computation-vs-simulation
// trade-off measured on the wire.
func e18WarehouseCube(ctx context.Context) error {
	events, contracts, locs, trials := 2_000, 12, 150, 20_000
	queries, quoteTrials := 200, 2_000
	if *flagQuick {
		events, contracts, locs, trials = 600, 6, 60, 2_000
		queries, quoteTrials = 40, 500
	}
	workers := runtime.GOMAXPROCS(0)
	if *flagWorkers > 0 {
		workers = *flagWorkers
	}
	dims := warehouse.DefaultDims()

	fmt.Printf("## E18 — incremental warehouse cube (%d contracts, %d trials, dims %s)\n",
		contracts, trials, strings.Join(dims, ","))

	// One pipeline run supplies both the per-contract registry and the
	// pipeline-built cube (streamed through the stage-2 batch sink).
	p := core.New(core.Config{
		Seed: *flagSeed, NumEvents: events, NumContracts: contracts,
		LocationsPerContract: locs, NumTrials: trials,
		Engine: aggregate.Parallel{}, Sampling: true, Rho: 0.2,
		Workers: workers, TwoLayers: true, CubeDims: dims,
	})
	if _, err := p.Run(ctx); err != nil {
		return err
	}
	pc := p.AggResult.PerContract
	attrs := warehouse.DefaultAttrs(contracts)
	in := &warehouse.Input{Tables: pc, Attrs: attrs}

	t0 := time.Now()
	batchCube, err := warehouse.Build(ctx, in, dims, workers)
	if err != nil {
		return err
	}
	batchDur := time.Since(t0)

	const batchSize = 1_000
	t0 = time.Now()
	bld, err := warehouse.NewBuilder(dims, attrs, trials, workers)
	if err != nil {
		return err
	}
	for lo := 0; lo < trials; lo += batchSize {
		k := batchSize
		if lo+k > trials {
			k = trials - lo
		}
		agg := make([][]float64, contracts)
		occ := make([][]float64, contracts)
		for ci, t := range pc {
			agg[ci] = t.Agg[lo : lo+k]
			occ[ci] = t.OccMax[lo : lo+k]
		}
		if err := bld.IngestBatch(lo, agg, occ); err != nil {
			return err
		}
	}
	incCube, err := bld.Finalize(ctx, pc)
	if err != nil {
		return err
	}
	incDur := time.Since(t0)
	if err := cubesEqual(batchCube, incCube); err != nil {
		return fmt.Errorf("E18: incremental vs batch: %w", err)
	}
	if err := cubesEqual(batchCube, p.Cube); err != nil {
		return fmt.Errorf("E18: pipeline-built vs batch: %w", err)
	}

	fmt.Printf("%-22s %12s %14s %8s\n", "build", "duration", "resident", "cells")
	fmt.Printf("%-22s %12v %14s %8d\n", "batch", batchDur.Round(time.Millisecond),
		yelt.HumanBytes(float64(batchCube.SizeBytes())), batchCube.Cells())
	fmt.Printf("%-22s %12v %14s %8d  (bit-identical, %d-trial batches)\n", "incremental",
		incDur.Round(time.Millisecond), yelt.HumanBytes(float64(incCube.SizeBytes())),
		incCube.Cells(), batchSize)
	record("E18", "batch-build", batchDur, batchCube.SizeBytes(), 0)
	record("E18", "incremental-build", incDur, incCube.SizeBytes(),
		batchDur.Seconds()/incDur.Seconds())

	// Delta re-pricing: one contract's YLT changes; Replace refolds
	// only the touched cells, a rebuild refolds everything.
	target := contracts / 2
	old := incCube.Contract(target)
	next := &ylt.Table{Name: old.Name,
		Agg: make([]float64, trials), OccMax: make([]float64, trials)}
	for i := range next.Agg {
		next.Agg[i] = old.Agg[i] * 1.25
		next.OccMax[i] = old.OccMax[i] * 1.25
	}
	t0 = time.Now()
	touched, err := incCube.Replace(ctx, target, old, next)
	if err != nil {
		return err
	}
	repDur := time.Since(t0)
	swapped := append([]*ylt.Table(nil), pc...)
	swapped[target] = next
	t0 = time.Now()
	rebuilt, err := warehouse.Build(ctx, &warehouse.Input{Tables: swapped, Attrs: attrs}, dims, workers)
	if err != nil {
		return err
	}
	rebuildDur := time.Since(t0)
	if err := cubesEqual(rebuilt, incCube); err != nil {
		return fmt.Errorf("E18: post-Replace vs rebuild: %w", err)
	}
	fmt.Printf("%-22s %12v  (%d/%d cells touched, bit-identical to %v rebuild, %.1fx)\n",
		"replace contract", repDur.Round(time.Microsecond), touched, incCube.Cells(),
		rebuildDur.Round(time.Millisecond), rebuildDur.Seconds()/repDur.Seconds())
	record("E18", "replace", repDur, int64(touched), rebuildDur.Seconds()/repDur.Seconds())
	record("E18", "rebuild", rebuildDur, int64(rebuilt.Cells()), 0)

	// Served queries: pre-computed cell vs registry recompute vs a
	// direct per-contract quote simulation, over HTTP.
	study := risk.NewStudy(risk.Config{
		Seed: *flagSeed, Events: events, Contracts: contracts,
		LocationsPerContract: locs, Trials: trials,
		MeanEventsPerYear: 10, Rho: 0.2, Sampling: true,
		Workers: 1, CubeDims: dims,
	})
	srv := serve.New(study, serve.Config{Workers: workers, DefaultTrials: quoteTrials})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(query string) ([]byte, time.Duration, error) {
		t0 := time.Now()
		resp, err := ts.Client().Get(ts.URL + "/v1/cube" + query)
		if err != nil {
			return nil, 0, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != 200 {
			err = fmt.Errorf("E18: /v1/cube%s: status %d (%s)", query, resp.StatusCode, body)
		}
		return body, time.Since(t0), err
	}
	// First query triggers the full study run and cube build.
	t0 = time.Now()
	servedBody, _, err := get("?region=coastal")
	if err != nil {
		return err
	}
	firstDur := time.Since(t0)
	directBody, _, err := get("?region=coastal&check=direct")
	if err != nil {
		return err
	}
	if string(servedBody) != string(directBody) {
		return fmt.Errorf("E18: served cell differs from check=direct recompute")
	}
	record("E18", "first-query-inc-run", firstDur, 0, 0)

	quantiles := func(lat []time.Duration) (p50, p99 time.Duration) {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)/2], lat[int(0.99*float64(len(lat)-1))]
	}
	var cubeLat, checkLat, simLat []time.Duration
	for i := 0; i < queries; i++ {
		if _, d, err := get("?region=coastal"); err != nil {
			return err
		} else {
			cubeLat = append(cubeLat, d)
		}
		if _, d, err := get("?region=coastal&check=direct"); err != nil {
			return err
		} else {
			checkLat = append(checkLat, d)
		}
	}
	simQueries := queries / 4
	if simQueries < 4 {
		simQueries = 4
	}
	for i := 0; i < simQueries; i++ {
		t0 := time.Now()
		body := fmt.Sprintf(`{"contract": %d, "trials": %d}`, i%contracts, quoteTrials)
		resp, err := ts.Client().Post(ts.URL+"/v1/quote", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			return fmt.Errorf("E18: /v1/quote: status %d", resp.StatusCode)
		}
		simLat = append(simLat, time.Since(t0))
	}

	fmt.Printf("%-22s %12s %12s %8s\n", "query path", "p50", "p99", "n")
	for _, row := range []struct {
		name string
		lat  []time.Duration
	}{
		{"cube (pre-computed)", cubeLat},
		{"cube check=direct", checkLat},
		{"quote simulation", simLat},
	} {
		p50, p99 := quantiles(row.lat)
		fmt.Printf("%-22s %12v %12v %8d\n", row.name,
			p50.Round(10*time.Microsecond), p99.Round(10*time.Microsecond), len(row.lat))
		slug := strings.NewReplacer(" ", "-", "(", "", ")", "", "=", "-").Replace(row.name)
		record("E18", slug+"/p50", p50, 0, 0)
		record("E18", slug+"/p99", p99, 0, 0)
	}
	p50c, _ := quantiles(cubeLat)
	p50s, _ := quantiles(simLat)
	fmt.Printf("pre-computed cell answers %.0fx faster than a %d-trial quote simulation\n",
		p50s.Seconds()/p50c.Seconds(), quoteTrials)

	srv.BeginDrain()
	ts.Close()
	return srv.Drain(ctx)
}

// cubesEqual reports whether two cubes hold exactly the same cells
// with bitwise-identical per-trial columns.
func cubesEqual(a, b *warehouse.Cube) error {
	ka, kb := a.Keys(), b.Keys()
	if len(ka) != len(kb) {
		return fmt.Errorf("%d cells vs %d", len(ka), len(kb))
	}
	for i, key := range ka {
		if key != kb[i] {
			return fmt.Errorf("cell key %q vs %q", key, kb[i])
		}
		filter := map[string]string{}
		for _, part := range strings.Split(key, ",") {
			k, v, _ := strings.Cut(part, "=")
			filter[k] = v
		}
		ca, err := a.Query(filter)
		if err != nil {
			return err
		}
		cb, err := b.Query(filter)
		if err != nil {
			return err
		}
		for t := range ca.Table.Agg {
			if math.Float64bits(ca.Table.Agg[t]) != math.Float64bits(cb.Table.Agg[t]) ||
				math.Float64bits(ca.Table.OccMax[t]) != math.Float64bits(cb.Table.OccMax[t]) {
				return fmt.Errorf("cell %s trial %d differs", key, t)
			}
		}
	}
	return nil
}
