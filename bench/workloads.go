package main

import (
	"fmt"
	"path/filepath"
	"runtime"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/risk"
)

// shape is a workload's problem size. The full shapes below are the
// ones BENCHMARK.json measures; bench_test.go runs the same code on toy
// shapes.
type shape struct {
	events, contracts, locations, trials int
	// quoteTrials are the two request classes of quote-serve: 80 % of
	// quotes ask for the first, 20 % for the second.
	quoteTrials [2]int
	// openRate is quote-serve's open-loop arrival rate per second.
	openRate float64
	// minOps is the least work one run measures whatever --seconds says:
	// pipeline passes for a batch workload, closed-loop quotes for
	// quote-serve; minOpen is the same for open-loop arrivals.
	minOps, minOpen int
	// setupReps is how often set-up is repeated; setup_s is the median.
	setupReps int
	// oracleTrials sizes the reduced-book oracle check (events ÷ 5).
	oracleTrials int
}

// workload is one named set of inputs. Every workload is described by a
// core.Config; quote-serve serves a risk.Study that expands to the same
// core.Config, which is what its oracle check and traced replica run.
type workload struct {
	name  string
	serve bool
	shape shape
	// engine, streaming, spill and sampling pick the stage-2 path.
	mapreduce, streaming, spill, sampling bool
	workers                               int // 0 = GOMAXPROCS
	cube                                  bool
}

// The four workloads. Names are normative: later issues claim a metric
// on a workload by these names.
var workloads = []workload{
	{
		// riskpipeline with no flags: stage 1 is ~92 % of the wall time.
		name:     "model-heavy",
		shape:    shape{events: 10_000, contracts: 16, locations: 200, trials: 100_000, minOps: 3, setupReps: 3, oracleTrials: 20_000},
		sampling: true,
	},
	{
		// Dense book, fused generator: the sampling kernel and the trial
		// generator are over half of the wall time.
		name:      "trial-sampled",
		shape:     shape{events: 3_000, contracts: 48, locations: 40, trials: 450_000, minOps: 3, setupReps: 3, oracleTrials: 20_000},
		streaming: true, sampling: true,
	},
	{
		// Same book, other paths through the same layers: expected-mode
		// kernel, trial stream spilled to and re-scanned from shards,
		// MapReduce driver. Stage 3 and the metrics are over half of it.
		name:      "spill-expected",
		shape:     shape{events: 3_000, contracts: 48, locations: 40, trials: 1_000_000, minOps: 3, setupReps: 3, oracleTrials: 20_000},
		mapreduce: true, spill: true,
	},
	{
		// The serving path: HTTP tier over risk.Study.PriceContract.
		name:  "quote-serve",
		serve: true,
		shape: shape{events: 4_000, contracts: 16, locations: 100, trials: 50_000, quoteTrials: [2]int{10_000, 50_000}, openRate: openRate, minOps: 500, minOpen: 100, setupReps: 3, oracleTrials: 20_000},
		// Quotes simulate single-threaded; the server's pool carries the
		// parallelism across requests.
		workers: 1, sampling: true, cube: true,
	},
}

// workerCount is the parallelism a pass of the workload runs under.
func (w workload) workerCount() int {
	if w.workers > 0 {
		return w.workers
	}
	return runtime.GOMAXPROCS(0)
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

var cubeDims = []string{"region", "lob"}

const rho = 0.25 // the CLIs' default copula correlation

// coreConfig expands the workload to the pipeline configuration. The
// benchmark seed is the book seed: catalogue, exposure, trial stream and
// sampling all derive from it inside core. spillDir is only read by a
// spilling workload; core keeps a caller-supplied directory, so the
// caller removes it.
func (w workload) coreConfig(seed uint64, spillDir string) core.Config {
	cfg := core.Config{
		Seed:                 seed,
		NumEvents:            w.shape.events,
		NumContracts:         w.shape.contracts,
		LocationsPerContract: w.shape.locations,
		NumTrials:            w.shape.trials,
		Engine:               aggregate.Parallel{},
		Sampling:             w.sampling,
		Streaming:            w.streaming,
		Rho:                  rho,
		Workers:              w.workers,
		TwoLayers:            true,
	}
	if w.mapreduce {
		cfg.Engine = aggregate.MapReduce{}
	}
	if w.spill {
		cfg.Spill = true
		cfg.SpillDir = spillDir
		cfg.SpillReplicas = 2
	}
	if w.cube {
		cfg.CubeDims = cubeDims
	}
	return cfg
}

// riskConfig is the study quote-serve serves; risk.Study expands it to
// coreConfig(seed, "").
func (w workload) riskConfig(seed uint64) risk.Config {
	return risk.Config{
		Seed:                 seed,
		Events:               w.shape.events,
		Contracts:            w.shape.contracts,
		LocationsPerContract: w.shape.locations,
		Trials:               w.shape.trials,
		Engine:               risk.EngineParallel,
		Sampling:             w.sampling,
		CubeDims:             cubeDims,
		Rho:                  rho,
		Workers:              w.workers,
	}
}

// scratchRoot holds everything a run writes: spill shards and, in
// all-workloads mode, the children's reports. It sits in the checkout
// because a run may write nowhere else. Tests point it at a temporary
// directory.
var scratchRoot = ".bench_build"

func spillDirFor(w workload, tag string) string {
	return filepath.Join(scratchRoot, "spill-"+w.name+"-"+tag)
}
