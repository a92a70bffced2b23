// Portfolio rollup: warehouse-style pre-computed rollups over
// per-contract aggregate analysis — the stage-3 "parallel data
// warehousing" remedy for analyst queries over large YLT sets. The
// cube materializes every region × line-of-business group once; each
// analyst query is then a dictionary lookup.
//
// The cube is built the one way there is, the way the pipeline builds
// it: a warehouse.Builder folds each trial batch of every contract
// into its cells as stage 2 simulates it, and Finalize summarizes the
// cells over the per-contract tables as the cube's registry. A delta
// re-price of one contract via Cube.Replace then refolds only the
// cells that contract touches.
//
//	go run ./examples/portfolio_rollup
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/aggregate"
	"repro/internal/synth"
	"repro/internal/warehouse"
	"repro/internal/ylt"
)

func main() {
	ctx := context.Background()
	const numTrials = 30_000
	s, err := synth.Build(ctx, synth.Params{
		Seed: 7, NumEvents: 5_000, NumContracts: 12,
		LocationsPerContract: 200, NumTrials: numTrials,
		MeanEventsPerYear: 10, TwoLayers: true,
	})
	if err != nil {
		log.Fatalf("portfolio_rollup: %v", err)
	}

	// Tag each contract with reporting dimensions (in production these
	// come from the underwriting system).
	regions := []string{"coastal", "interior", "secondary"}
	lobs := []string{"property", "engineering"}
	attrs := make([]map[string]string, len(s.Portfolio.Contracts))
	for i := range attrs {
		attrs[i] = map[string]string{
			"region": regions[i%len(regions)],
			"lob":    lobs[i%len(lobs)],
		}
	}

	// Stage 2 with per-contract YLTs, each trial batch folded into the
	// cube as the engine completes it.
	start := time.Now()
	bld, err := warehouse.NewBuilder([]string{"region", "lob"}, attrs, numTrials, 0)
	if err != nil {
		log.Fatalf("portfolio_rollup: builder: %v", err)
	}
	res, err := (aggregate.Parallel{}).Run(ctx,
		&aggregate.Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio},
		aggregate.Config{Seed: 11, Sampling: true, PerContract: true,
			// An ingest error is latched and returned by Finalize.
			BatchSink: func(lo int, agg, occ [][]float64) { _ = bld.IngestBatch(lo, agg, occ) }})
	if err != nil {
		log.Fatalf("portfolio_rollup: aggregate: %v", err)
	}
	cube, err := bld.Finalize(ctx, res.PerContract)
	if err != nil {
		log.Fatalf("portfolio_rollup: cube: %v", err)
	}
	fmt.Printf("stage 2 and %d rollup cells in %v (cube fold %v)\n\n", cube.Cells(),
		time.Since(start).Round(time.Millisecond), bld.FoldDuration().Round(time.Millisecond))

	queries := []map[string]string{
		{"region": "coastal"},
		{"region": "interior"},
		{"lob": "property"},
		{"region": "coastal", "lob": "property"},
	}
	fmt.Printf("%-36s %10s %14s %14s\n", "group", "contracts", "AAL", "99% TVaR")
	for _, q := range queries {
		cell, err := cube.Query(q)
		if err != nil {
			log.Fatalf("portfolio_rollup: query %v: %v", q, err)
		}
		fmt.Printf("%-36s %10d %14.0f %14.0f\n",
			cell.Key, cell.Members, cell.Summary.AAL, cell.Summary.TVaR99)
	}

	// Whole-book view by direct combination, for comparison.
	whole, err := ylt.Combine("book", res.PerContract...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwhole book: AAL %.0f over %d trials\n", whole.Mean(), whole.NumTrials())

	// Delta re-price: contract 3's terms change, its YLT scales up.
	// Replace refolds only the cells contract 3 belongs to.
	coastal := map[string]string{"region": "coastal"}
	before, _ := cube.Query(coastal)
	old := cube.Contract(3)
	next := ylt.New(old.Name, numTrials)
	for i := range next.Agg {
		next.Agg[i] = old.Agg[i] * 1.3
		next.OccMax[i] = old.OccMax[i] * 1.3
	}
	start = time.Now()
	touched, err := cube.Replace(ctx, 3, old, next)
	if err != nil {
		log.Fatalf("portfolio_rollup: replace: %v", err)
	}
	after, _ := cube.Query(coastal)
	fmt.Printf("re-priced contract 3 in %v: %d/%d cells refolded; coastal AAL %.0f → %.0f\n",
		time.Since(start).Round(time.Millisecond), touched, cube.Cells(),
		before.Summary.AAL, after.Summary.AAL)
}
