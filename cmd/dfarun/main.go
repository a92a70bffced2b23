// Command dfarun runs stage 3 only: it builds a catastrophe YLT from
// a quick stage-1+2 pass, then integrates it with the six standard
// enterprise risk sources under a Gaussian copula and reports the
// enterprise risk profile.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/aggregate"
	"repro/internal/dfa"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/internal/yelt"
)

func main() {
	var (
		trials  = flag.Int("trials", 100_000, "trial years")
		seed    = flag.Uint64("seed", 1, "master seed")
		rho     = flag.Float64("rho", 0.25, "copula equicorrelation across risks")
		workers = flag.Int("workers", 0, "parallelism bound (0 = all cores)")
	)
	flag.Parse()
	ctx := context.Background()

	s, err := synth.Build(ctx, synth.Params{
		Seed: *seed, NumEvents: 5_000, NumContracts: 8,
		LocationsPerContract: 200, NumTrials: *trials,
		MeanEventsPerYear: 10, TwoLayers: true, Workers: *workers,
	})
	if err != nil {
		fail(err)
	}
	res, err := (aggregate.Parallel{}).Run(ctx,
		&aggregate.Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio},
		aggregate.Config{Seed: *seed + 13, Sampling: true, Workers: *workers})
	if err != nil {
		fail(err)
	}
	cat := res.Portfolio

	ig := &dfa.Integrator{Sources: dfa.StandardSources(cat.Mean())}
	start := time.Now()
	dres, err := ig.Run(ctx, cat, dfa.Config{Seed: *seed + 29, Rho: *rho, Workers: *workers, KeepPerSource: true})
	if err != nil {
		fail(err)
	}
	fmt.Printf("integrated %d sources over %d trials in %v; total data %s\n\n",
		len(dres.PerSource), cat.NumTrials(), time.Since(start).Round(time.Millisecond),
		yelt.HumanBytes(float64(dres.TotalBytes)))

	fmt.Printf("%-16s %16s %16s\n", "risk source", "mean loss", "99% VaR")
	for _, t := range dres.PerSource {
		v, err := metrics.VaR(t.Agg, 0.99)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%-16s %16.0f %16.0f\n", t.Name, t.Mean(), v)
	}
	fmt.Println()
	for _, tbl := range []struct {
		name string
		sum  func() (*metrics.Summary, error)
	}{
		{"catastrophe", func() (*metrics.Summary, error) { return metrics.Summarize(cat) }},
		{"enterprise", func() (*metrics.Summary, error) { return metrics.Summarize(dres.Enterprise) }},
	} {
		s, err := tbl.sum()
		if err != nil {
			fail(err)
		}
		fmt.Printf("=== %s ===\n%s\n", tbl.name, s)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "dfarun: %v\n", err)
	os.Exit(1)
}
