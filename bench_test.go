// Root benchmark harness: one benchmark (family) per paper experiment
// E1–E9 from EXPERIMENTS.md. Absolute numbers are machine-dependent;
// the *shapes* asserted in EXPERIMENTS.md (who wins, by roughly what
// factor) are what reproduce the paper. cmd/benchtables prints the
// richer tables; these benches give `go test -bench` one-line
// comparables per experiment. The system itself is measured by the repo
// benchmark, `go run ./bench`.
package repro_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/gpusim"
	"repro/internal/layers"
	"repro/internal/synth"
	"repro/internal/yelt"
)

var (
	benchOnce sync.Once
	benchScen *synth.Scenario // general scenario (with aggregate terms)
	benchOcc  *synth.Scenario // occurrence-only scenario (device engines)
	benchErr  error
)

// benchTrials is sized so the sequential engine takes O(100ms) per
// iteration — large enough to measure, small enough to iterate.
const benchTrials = 50_000

func scenarios(b *testing.B) (*synth.Scenario, *synth.Scenario) {
	b.Helper()
	benchOnce.Do(func() {
		p := synth.Params{
			Seed: 42, NumEvents: 5_000, NumContracts: 8,
			LocationsPerContract: 150, NumTrials: benchTrials,
			MeanEventsPerYear: 10, TwoLayers: true,
		}
		benchScen, benchErr = synth.Build(context.Background(), p)
		if benchErr != nil {
			return
		}
		p.OccurrenceOnly = true
		benchOcc, benchErr = synth.Build(context.Background(), p)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchScen, benchOcc
}

func aggInput(s *synth.Scenario) *aggregate.Input {
	return &aggregate.Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio}
}

// --- E1: aggregate analysis, sequential vs parallel ---

func BenchmarkE1SequentialEngine(b *testing.B) {
	s, _ := scenarios(b)
	in := aggInput(s)
	cfg := aggregate.Config{Seed: 1, Sampling: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (aggregate.Sequential{}).Run(context.Background(), in, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

func BenchmarkE1ParallelEngine(b *testing.B) {
	s, _ := scenarios(b)
	in := aggInput(s)
	cfg := aggregate.Config{Seed: 1, Sampling: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (aggregate.Parallel{}).Run(context.Background(), in, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

// --- E2: the million-trial single-contract quote ---

func BenchmarkE2MillionTrialContract(b *testing.B) {
	s, _ := scenarios(b)
	y, err := yelt.Generate(context.Background(), s.Catalog, yelt.Config{NumTrials: 1_000_000}, 7)
	if err != nil {
		b.Fatal(err)
	}
	in := &aggregate.Input{
		YELT:      y,
		ELTs:      s.ELTs[:1],
		Portfolio: singleContract(s, 0),
	}
	cfg := aggregate.Config{Seed: 2, Sampling: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (aggregate.Parallel{}).Run(context.Background(), in, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1e6*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

func singleContract(s *synth.Scenario, i int) *layers.Portfolio {
	c := s.Portfolio.Contracts[i]
	c.ELTIndex = 0
	return &layers.Portfolio{Contracts: []layers.Contract{c}}
}

// --- E3: data-volume generation throughput ---

func BenchmarkE3YELTGeneration(b *testing.B) {
	s, _ := scenarios(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y, err := yelt.Generate(context.Background(), s.Catalog, yelt.Config{NumTrials: benchTrials}, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(y.SizeBytes())
	}
}

// --- E4: chunked vs naive device kernels (modeled cycles reported) ---

func BenchmarkE4ChunkedKernel(b *testing.B) {
	_, occ := scenarios(b)
	in := aggInput(occ)
	eng := &aggregate.Chunked{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), in, aggregate.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(eng.LastStats.BlockCycles), "devcycles")
	b.ReportMetric(eng.LastStats.ModeledSeconds(gpusim.DefaultConfig())*1e3, "devms")
}

func BenchmarkE4NaiveKernel(b *testing.B) {
	_, occ := scenarios(b)
	in := aggInput(occ)
	eng := &aggregate.Chunked{Naive: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), in, aggregate.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(eng.LastStats.BlockCycles), "devcycles")
	b.ReportMetric(eng.LastStats.ModeledSeconds(gpusim.DefaultConfig())*1e3, "devms")
}

// --- E5: the oracle's per-(occurrence × contract) ELT binary search
// against the Sequential engine's scan of the pre-joined loss index,
// one 100k-trial book in expected mode. The scan's index and flat build
// is inside its loop, as in cmd/benchtables. ---

const idxBenchTrials = 100_000

func idxBenchInput(b *testing.B) *aggregate.Input {
	b.Helper()
	s, _ := scenarios(b)
	y, err := yelt.Generate(context.Background(), s.Catalog, yelt.Config{NumTrials: idxBenchTrials}, 17)
	if err != nil {
		b.Fatal(err)
	}
	return &aggregate.Input{YELT: y, ELTs: s.ELTs, Portfolio: s.Portfolio}
}

func BenchmarkE5RandomAccess(b *testing.B) {
	in := idxBenchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (aggregate.LegacyLookup{}).Run(context.Background(), in, aggregate.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(in.YELT.Occs))*float64(b.N)/b.Elapsed().Seconds(), "occurrences/s")
}

func BenchmarkE5Scan(b *testing.B) {
	in := idxBenchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := *in // no index or flat yet: the engine builds both
		if _, err := (aggregate.Sequential{}).Run(context.Background(), &run, aggregate.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(in.YELT.Occs))*float64(b.N)/b.Elapsed().Seconds(), "occurrences/s")
}

// --- E6: Parallel over the resident table vs MapReduce over its
// spilled shards, one book in expected mode ---

func BenchmarkE6InMemory(b *testing.B) {
	s, _ := scenarios(b)
	in := aggInput(s)
	if _, err := in.EnsureFlat(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (aggregate.Parallel{}).Run(context.Background(), in, aggregate.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

func BenchmarkE6MapReduce(b *testing.B) {
	s, _ := scenarios(b)
	ds, err := yelt.SpillToDir(context.Background(), s.YELT, b.TempDir(), 0, aggregate.DefaultSpillParts(benchTrials), 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	in := &aggregate.Input{Source: ds, ELTs: s.ELTs, Portfolio: s.Portfolio}
	if _, err := in.EnsureFlat(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (aggregate.MapReduce{}).Run(context.Background(), in, aggregate.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

// --- E7: provisioning policies over a measured pipeline run ---

// BenchmarkE7Elasticity runs a small pipeline (MapReduce stage 2) under
// an elastic policy and then under a static fleet as wide as the widest
// stage the elastic run provisioned, and reports each run's
// utilization: busy over billed processor-seconds from its stage
// reports.
func BenchmarkE7Elasticity(b *testing.B) {
	cfg := core.Config{
		Seed: 42, NumEvents: 1_000, NumContracts: 4, LocationsPerContract: 60,
		MeanEventsPerYear: 10, NumTrials: 6 * aggregate.DefaultSplitTrials,
		Rho: 0.25, TwoLayers: true, Engine: aggregate.MapReduce{},
	}
	run := func(policy cluster.Policy) (util float64, widest int) {
		cfg.Provision = policy
		p := core.New(cfg)
		if _, err := p.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		var billed, busy float64
		for _, s := range p.Stages {
			billed += s.AllocatedProcSecs
			busy += s.BusyProcSecs
			widest = max(widest, s.Workers)
		}
		return busy / billed, widest
	}
	var staticUtil, elasticUtil float64
	for i := 0; i < b.N; i++ {
		var widest int
		elasticUtil, widest = run(cluster.Elastic{Max: 64})
		staticUtil, _ = run(cluster.Static{N: widest})
	}
	b.ReportMetric(100*staticUtil, "staticUtil%")
	b.ReportMetric(100*elasticUtil, "elasticUtil%")
}

// --- E8: trial-count scaling per engine ---

func BenchmarkE8TrialsSweep(b *testing.B) {
	s, _ := scenarios(b)
	for _, trials := range []int{1_000, 10_000, 100_000} {
		y, err := yelt.Generate(context.Background(), s.Catalog, yelt.Config{NumTrials: trials}, 9)
		if err != nil {
			b.Fatal(err)
		}
		in := &aggregate.Input{YELT: y, ELTs: s.ELTs, Portfolio: s.Portfolio}
		b.Run(fmt.Sprintf("trials=%d", trials), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (aggregate.Parallel{}).Run(context.Background(), in,
					aggregate.Config{Seed: 3, Sampling: true}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// --- E9: DFA integration scaling with source count ---

func BenchmarkE9DFAIntegration(b *testing.B) {
	s, _ := scenarios(b)
	res, err := (aggregate.Parallel{}).Run(context.Background(), aggInput(s), aggregate.Config{})
	if err != nil {
		b.Fatal(err)
	}
	cat := res.Portfolio
	for _, k := range []int{2, 6, 24} {
		base := dfa.StandardSources(cat.Mean())
		sources := make([]dfa.Source, 0, k)
		for len(sources) < k {
			sources = append(sources, base[len(sources)%len(base)])
		}
		ig := &dfa.Integrator{Sources: sources}
		b.Run(fmt.Sprintf("sources=%d", k), func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				dres, err := ig.Run(context.Background(), cat, dfa.Config{Seed: 7, Rho: 0.2, KeepPerSource: true})
				if err != nil {
					b.Fatal(err)
				}
				bytes = dres.TotalBytes
			}
			b.ReportMetric(float64(bytes)/1e6, "MB-out")
		})
	}
}
