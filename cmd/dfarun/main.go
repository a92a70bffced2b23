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
	"repro/internal/cliflags"
	"repro/internal/dfa"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/internal/yelt"
)

func main() {
	sp := synth.Params{
		Seed: 1, NumEvents: 5_000, NumContracts: 8,
		LocationsPerContract: 200, NumTrials: 100_000,
		MeanEventsPerYear: 10, TwoLayers: true,
	}
	dcfg := dfa.Config{Rho: 0.25, KeepPerSource: true}
	cliflags.Trials(&sp.NumTrials)
	cliflags.Seed(&sp.Seed)
	cliflags.Rho(&dcfg.Rho)
	cliflags.Workers(&sp.Workers)
	flag.Parse()
	ctx := context.Background()

	s, err := synth.Build(ctx, sp)
	if err != nil {
		fail(err)
	}
	res, err := (aggregate.Parallel{}).Run(ctx,
		&aggregate.Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio},
		aggregate.Config{Seed: sp.Seed + 13, Sampling: true, Workers: sp.Workers})
	if err != nil {
		fail(err)
	}
	cat := res.Portfolio

	ig := &dfa.Integrator{Sources: dfa.StandardSources(cat.Mean())}
	start := time.Now()
	dcfg.Seed, dcfg.Workers = sp.Seed+29, sp.Workers
	dres, err := ig.Run(ctx, cat, dcfg)
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
