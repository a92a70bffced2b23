// Command riskpipeline runs the full three-stage risk analytics
// pipeline — catastrophe modelling, portfolio aggregate analysis, and
// dynamic financial analysis — and prints per-stage cost, the data
// burst between stages, and the final risk reports.
//
// Besides the default fused run, -mode splits the pipeline across OS
// processes at the spilled-YELT boundary: "-mode spill -dir D" runs
// stage 1 and writes the trial shards + manifest under D, then a
// separate "-mode aggregate -dir D" invocation re-attaches to the
// shards and runs stages 2–3 over them — the paper's write-once/
// scan-many file lifecycle across real process boundaries, with
// bit-identical results to the fused run.
//
// Over shards (-spill, or -mode aggregate) the mapreduce engine places
// its mappers shard-affine — a shard is scanned by a mapper homed on a
// node that holds it — and the "shard data motion" line prints the
// share of bytes that stayed node-local. That is what a sharded source
// gets; there is no placement flag.
//
// The "dfa" stage line counts the tables stage 3 keeps: the catastrophe
// and the enterprise YLT. The pipeline reads only the enterprise total,
// so the per-source tables are not built (experiment E9, `benchtables
// -e 9`, builds them and counts their bytes) and the line's output
// bytes are those two tables', not 2 + K.
//
// -cube-dims materializes the warehouse cube over those dimensions
// while stage 2 runs (a "warehouse" stage line appears in the table),
// and -cube-query prints one pre-computed cell, e.g.
// -cube-dims region,lob -cube-query region=coastal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/aggregate"
	"repro/internal/cliflags"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/yelt"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.Sampling = true
	cliflags.Seed(&cfg.Seed)
	cliflags.Events(&cfg.NumEvents)
	cliflags.Contracts(&cfg.NumContracts)
	cliflags.Locations(&cfg.LocationsPerContract)
	cliflags.Trials(&cfg.NumTrials)
	cliflags.Workers(&cfg.Workers)
	cliflags.Rho(&cfg.Rho)
	cliflags.CubeDims(&cfg.CubeDims)
	flag.BoolVar(&cfg.Sampling, "sampling", cfg.Sampling, "secondary-uncertainty sampling in stage 2")
	flag.BoolVar(&cfg.Streaming, "stream", cfg.Streaming, "fuse stage-2 YELT generation into the engine (bounded memory, bit-identical results)")
	flag.IntVar(&cfg.BatchTrials, "batch", cfg.BatchTrials, "streaming trial-batch size per worker (0 = engine default)")
	flag.BoolVar(&cfg.Spill, "spill", cfg.Spill, "spill the generated trial stream into diskstore shards and run stage 2 over the shards (implies -stream)")
	flag.StringVar(&cfg.SpillDir, "dir", cfg.SpillDir, "spill store directory (required for -mode spill/aggregate; optional shard-keeping dir for -spill)")
	flag.IntVar(&cfg.SpillParts, "parts", cfg.SpillParts, "spill shard count (0 = derived from the trial count)")
	flag.IntVar(&cfg.SpillNodes, "nodes", cfg.SpillNodes, "spill store storage-node count (0 = default)")
	flag.IntVar(&cfg.SpillReplicas, "replicas", cfg.SpillReplicas, "spill replication factor: each shard written to this many storage nodes (<=1 = none)")
	flag.BoolVar(&cfg.Speculate, "speculate", cfg.Speculate, "speculative re-execution of straggling map tasks (mapreduce engine)")
	flag.BoolVar(&cfg.Reinstatements, "reinstatements", cfg.Reinstatements, "write standard reinstatement terms on the book's limited layers (one reinstatement at 100%, 5% rate-on-line) and print the premium")
	var (
		mode      = flag.String("mode", "run", "run = fused pipeline; spill = stage 1 + shard write into -dir, no aggregation; aggregate = re-attach to -dir shards and run stages 2-3 (the shards decide the trial count)")
		engine    = flag.String("engine", "parallel", "stage-2 engine: "+strings.Join(aggregate.EngineNames(), "|"))
		provision = flag.String("provision", "", "per-stage worker provisioning policy: static:N or elastic:N (empty = static -workers bound)")
		chaos     = flag.String("chaos", "", "deterministic fault injection into stage 2 (mapreduce engine), e.g. rate=0.1,shard=3@2,kill=1@4,delay=2@50ms (bit-identical results)")
		cubeQuery = flag.String("cube-query", "", "print one cube cell, as dim=value pairs joined by commas (requires -cube-dims)")
	)
	flag.Parse()

	cubeFilter, err := parseCubeQuery(*cubeQuery)
	if err != nil {
		exit(2, err)
	}
	if cubeFilter != nil && len(cfg.CubeDims) == 0 {
		exit(2, errors.New("-cube-query requires -cube-dims"))
	}

	if cfg.Engine, err = aggregate.EngineByName(*engine); err != nil {
		exit(2, err)
	}
	if cfg.Provision, err = cluster.ParsePolicy(*provision); err != nil {
		exit(2, err)
	}
	if cfg.Faults, err = faultinject.Parse(*chaos, cfg.Seed); err != nil {
		exit(2, err)
	}
	if err := cfg.CheckFaultEngine(); err != nil {
		exit(2, err)
	}

	ctx := context.Background()
	switch *mode {
	case "run":
	case "spill":
		if cfg.SpillDir == "" {
			exit(2, errors.New("-mode spill requires -dir"))
		}
		p := core.New(cfg)
		if err := p.SpillStage2(ctx); err != nil {
			exit(1, err)
		}
		fmt.Println("=== spill stages ===")
		printStages(p.Stages, cfg.Provision != nil)
		fmt.Printf("shards + manifest committed under %s; aggregate with: riskpipeline -mode aggregate -dir %s\n", cfg.SpillDir, cfg.SpillDir)
		return
	case "aggregate":
		if cfg.SpillDir == "" {
			exit(2, errors.New("-mode aggregate requires -dir"))
		}
		cfg.SpillAttach = true
		cfg.Spill = false
	default:
		exit(2, fmt.Errorf("unknown mode %q", *mode))
	}

	p := core.New(cfg)
	rep, err := p.Run(ctx)
	if err != nil {
		exit(1, err)
	}

	fmt.Println("=== pipeline stages ===")
	printStages(rep.Stages, cfg.Provision != nil)
	var stage1, stage2 float64
	for _, s := range rep.Stages {
		switch s.Name {
		case "risk-modelling":
			stage1 = float64(s.OutputBytes)
		case "portfolio-risk":
			stage2 = float64(s.OutputBytes)
		}
	}
	fmt.Printf("stage-1 → stage-2 data burst: %.1fx\n", stage2/stage1)
	if cfg.Streaming || cfg.Spill || cfg.SpillAttach {
		fmt.Printf("(streaming stage 2: the portfolio-risk line accounts peak-resident trial bytes, not a materialized YELT)\n")
	}
	if cfg.Spill {
		fmt.Printf("(spilled stage 2: the yelt-spill line is the shard write; the engine re-scanned those shards from disk)\n")
	}
	if cfg.SpillAttach {
		fmt.Printf("(two-process stage 2: shards spilled by an earlier process, re-attached via the manifest)\n")
	}
	for _, s := range rep.Stages {
		if f := s.Faults; f.Any() {
			fmt.Printf("fault tolerance (%s): %d map failures recovered by %d retries, %d replica failovers, %d speculative (%d won), %d workers lost\n",
				s.Name, f.MapFailures, f.MapRetries, f.ShardFailovers, f.SpecLaunched, f.SpecWins, f.WorkersLost)
		}
	}
	if res := p.AggResult; res != nil && res.LocalBytes+res.RemoteBytes > 0 {
		total := res.LocalBytes + res.RemoteBytes
		fmt.Printf("shard data motion: %.1f%% of %s scanned node-local\n",
			100*float64(res.LocalBytes)/float64(total), yelt.HumanBytes(float64(total)))
	}
	if prem := p.AggResult.Premium; prem != nil {
		var total float64
		for _, v := range prem {
			total += v
		}
		fmt.Printf("reinstatement premium (standard terms): total=%.0f mean/trial=%.2f\n",
			total, total/float64(len(prem)))
	}
	if cube := p.Cube; cube != nil {
		fmt.Printf("warehouse cube: %d cells over dims %s (%s resident)\n",
			cube.Cells(), strings.Join(cube.Dims(), ","), yelt.HumanBytes(float64(cube.SizeBytes())))
		if cubeFilter != nil {
			cell, err := cube.Query(cubeFilter)
			if err != nil {
				exit(1, fmt.Errorf("cube query: %v", err))
			}
			fmt.Printf("=== cube cell %s ===\n", *cubeQuery)
			printSummary(cell.Summary)
		}
	}
	fmt.Println()

	fmt.Println("=== catastrophe book ===")
	printSummary(rep.Catastrophe)
	fmt.Println("=== enterprise (after DFA) ===")
	printSummary(rep.Enterprise)
}

// exit reports err and ends the process with code: 2 for a bad
// command line, 1 for a run that failed.
func exit(code int, err error) {
	fmt.Fprintf(os.Stderr, "riskpipeline: %v\n", err)
	os.Exit(code)
}

// parseCubeQuery turns "region=coastal,lob=marine" into a warehouse
// Query filter. Empty input means no query.
func parseCubeQuery(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	filter := map[string]string{}
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("malformed -cube-query pair %q (want dim=value)", pair)
		}
		if _, dup := filter[k]; dup {
			return nil, fmt.Errorf("-cube-query repeats dimension %q", k)
		}
		filter[k] = v
	}
	return filter, nil
}

// printStages prints the stage table; under a provisioning policy it
// adds the allocated-vs-busy processor-time columns the elasticity
// story is about.
func printStages(stages []core.StageReport, elastic bool) {
	if elastic {
		fmt.Printf("%-18s %14s %16s %14s %8s %12s %12s %6s\n",
			"stage", "duration", "output data", "items", "workers", "alloc-psec", "busy-psec", "util")
	} else {
		fmt.Printf("%-18s %14s %16s %14s\n", "stage", "duration", "output data", "items")
	}
	for _, s := range stages {
		if elastic {
			util := 0.0
			if s.AllocatedProcSecs > 0 {
				util = s.BusyProcSecs / s.AllocatedProcSecs
			}
			fmt.Printf("%-18s %14v %16s %14d %8d %12.3f %12.3f %6.2f\n", s.Name, threeDigits(s.Duration),
				yelt.HumanBytes(float64(s.OutputBytes)), s.Items, s.Workers,
				s.AllocatedProcSecs, s.BusyProcSecs, util)
		} else {
			fmt.Printf("%-18s %14v %16s %14d\n", s.Name, threeDigits(s.Duration),
				yelt.HumanBytes(float64(s.OutputBytes)), s.Items)
		}
	}
}

// threeDigits rounds d to three significant digits, so that a stage
// under a millisecond reads 412µs and not 0s.
func threeDigits(d time.Duration) time.Duration {
	unit := time.Nanosecond
	for d/unit >= 1000 {
		unit *= 10
	}
	return d.Round(unit)
}

func printSummary(s *metrics.Summary) {
	fmt.Print(s.String())
	fmt.Println()
}
