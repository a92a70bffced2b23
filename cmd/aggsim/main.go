// Command aggsim runs stage 2 only: aggregate analysis of a synthetic
// portfolio over a pre-simulated YELT, with a choice of engine —
// sequential baseline, native parallel, map/reduce over trial splits,
// the stateful reinstatements path, or the simulated many-core device
// with/without shared-memory chunking.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/aggregate"
	"repro/internal/lossindex"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/internal/yelt"
)

func main() {
	var (
		events    = flag.Int("events", 10_000, "stochastic catalogue size")
		contracts = flag.Int("contracts", 16, "number of contracts")
		trials    = flag.Int("trials", 100_000, "pre-simulated trial years")
		seed      = flag.Uint64("seed", 1, "master seed")
		workers   = flag.Int("workers", 0, "parallelism bound (0 = all cores)")
		engine    = flag.String("engine", "parallel", strings.Join(aggregate.EngineNames(true), "|"))
		sampling  = flag.Bool("sampling", false, "secondary-uncertainty sampling (host engines only)")
		streaming = flag.Bool("stream", false, "stream trial batches instead of materializing the YELT (bit-identical results, bounded memory)")
		batch     = flag.Int("batch", 0, "streaming trial-batch size per worker (0 = engine default)")
		spill     = flag.Bool("spill", false, "spill the generated trial stream into diskstore shards and run the engine over the shards (implies -stream)")
		parts     = flag.Int("parts", 0, "spill shard count (0 = derived from the trial count)")
		csvOut    = flag.String("csv", "", "write the summary as CSV to this file")
	)
	flag.Parse()
	ctx := context.Background()
	if *spill {
		*streaming = true
	}

	eng, err := aggregate.EngineByName(*engine, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aggsim: %v\n", err)
		os.Exit(2)
	}
	// The device engines take occurrence-only books.
	dev, _ := eng.(*aggregate.Chunked)
	reinst, _ := eng.(*aggregate.Reinstatements)
	s, err := synth.Build(ctx, synth.Params{
		Seed:                 *seed,
		NumEvents:            *events,
		NumContracts:         *contracts,
		LocationsPerContract: 250,
		NumTrials:            *trials,
		MeanEventsPerYear:    10,
		OccurrenceOnly:       dev != nil,
		TwoLayers:            true,
		Workers:              *workers,
		SkipYELT:             *streaming,
	})
	if err != nil {
		fail(err)
	}

	// Pre-join the book into the event-major loss index once, before
	// the trial loop, and report it as its own data-volume line: this
	// is the scan-oriented layout every engine shares.
	idxStart := time.Now()
	idx, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		fail(err)
	}
	idxBuild := time.Since(idxStart)

	in := &aggregate.Input{ELTs: s.ELTs, Portfolio: s.Portfolio, Index: idx}
	var gen *yelt.Generator
	var ds *yelt.DiskSource
	if *streaming {
		gen, err = s.YELTGenerator()
		if err != nil {
			fail(err)
		}
		in.Source = gen
	} else {
		in.YELT = s.YELT
	}
	if *spill {
		dir, err := os.MkdirTemp("", "aggsim-spill-*")
		if err != nil {
			fail(err)
		}
		defer os.RemoveAll(dir)
		nParts := *parts
		if nParts <= 0 {
			nParts = aggregate.DefaultSpillParts(*trials)
		}
		spillStart := time.Now()
		ds, err = yelt.SpillToDir(ctx, gen, dir, 0, nParts, 1, *workers)
		if err != nil {
			fail(err)
		}
		spillDur := time.Since(spillStart)
		spillBytes, err := ds.SizeBytes()
		if err != nil {
			fail(err)
		}
		in.Source = ds
		fmt.Printf("spill: shards=%d nodes=%d bytes=%s write=%v\n",
			ds.Shards(), ds.Nodes(), yelt.HumanBytes(float64(spillBytes)),
			spillDur.Round(time.Millisecond))
	}
	start := time.Now()
	res, err := eng.Run(ctx, in, aggregate.Config{
		Seed: *seed + 13, Sampling: *sampling, Workers: *workers, BatchTrials: *batch,
	})
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("loss-index: events=%d entries=%d size=%s build=%v\n",
		idx.NumRows(), idx.NumEntries(), yelt.HumanBytes(float64(idx.SizeBytes())),
		idxBuild.Round(time.Microsecond))
	occurrences := int64(0)
	switch {
	case ds != nil:
		// Spilled: count what the engine re-read from the shards.
		occurrences = ds.Scanned()
	case *streaming:
		occurrences = gen.Streamed()
	default:
		occurrences = int64(s.YELT.Len())
	}
	fmt.Printf("engine=%s trials=%d occurrences=%d elapsed=%v (%.0f trials/s)\n",
		eng.Name(), *trials, occurrences, elapsed.Round(time.Millisecond),
		float64(*trials)/elapsed.Seconds())
	if *streaming {
		// Single-pass engines stream each trial exactly once, so the
		// streamed count equals the occurrence count of the table the
		// run never built — giving the avoided-footprint ratio exactly.
		matBytes := yelt.TableBytes(*trials, occurrences)
		fmt.Printf("streaming: peak-resident=%s materialized-equivalent=%s (%.0fx smaller)\n",
			yelt.HumanBytes(float64(res.PeakResidentBytes)), yelt.HumanBytes(float64(matBytes)),
			float64(matBytes)/float64(res.PeakResidentBytes))
	}
	if reinst != nil {
		var total float64
		for _, p := range reinst.LastPremium {
			total += p
		}
		fmt.Printf("reinstatements: total premium=%.0f mean/trial=%.2f (standard terms: 1 reinstatement at 100%%, 5%% rate-on-line)\n",
			total, total/float64(len(reinst.LastPremium)))
	}
	if dev != nil {
		st := dev.LastStats
		fmt.Printf("device: blocks=%d blockCycles=%d global=%d shared=%d\n",
			st.Blocks, st.BlockCycles, st.GlobalAccesses, st.SharedAccesses)
	}
	sum, err := metrics.Summarize(res.Portfolio)
	if err != nil {
		fail(err)
	}
	fmt.Print(sum.String())
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fail(err)
		}
		if err := metrics.WriteSummaryCSV(f, sum); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("summary written to %s\n", *csvOut)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "aggsim: %v\n", err)
	os.Exit(1)
}
