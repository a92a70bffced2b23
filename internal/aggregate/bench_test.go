package aggregate

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/synth"
)

var (
	benchMu   sync.Mutex
	benchScen map[bool]*synth.Scenario

	blockedOnce sync.Once
	blockedIn   *Input
	blockedErr  error
)

func benchScenario(b *testing.B, occOnly bool) *synth.Scenario {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchScen == nil {
		benchScen = map[bool]*synth.Scenario{}
	}
	if s, ok := benchScen[occOnly]; ok {
		return s
	}
	p := synth.Params{
		Seed: 101, NumEvents: 4_000, NumContracts: 8,
		LocationsPerContract: 120, NumTrials: 20_000,
		MeanEventsPerYear: 10, TwoLayers: true, OccurrenceOnly: occOnly,
	}
	s, err := synth.Build(context.Background(), p)
	if err != nil {
		b.Fatal(err)
	}
	benchScen[occOnly] = s
	return s
}

func BenchmarkSequentialExpected(b *testing.B) {
	s := benchScenario(b, false)
	in := &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Sequential{}).Run(context.Background(), in, Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.YELT.NumTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

func BenchmarkSequentialSampling(b *testing.B) {
	s := benchScenario(b, false)
	in := &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Sequential{}).Run(context.Background(), in, Config{Sampling: true, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.YELT.NumTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

func BenchmarkParallelSampling(b *testing.B) {
	s := benchScenario(b, false)
	in := &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio}
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (Parallel{}).Run(context.Background(), in, Config{Sampling: true, Seed: 1, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.YELT.NumTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

func BenchmarkDeviceChunked(b *testing.B) {
	s := benchScenario(b, true)
	in := &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio}
	eng := &Chunked{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), in, Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(eng.LastStats.BlockCycles), "devcycles")
}

func BenchmarkDeviceNaive(b *testing.B) {
	s := benchScenario(b, true)
	in := &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio}
	eng := &Chunked{Naive: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), in, Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(eng.LastStats.BlockCycles), "devcycles")
}

// Ablation: trials-per-block on the device engine. Small blocks leave
// SMs idle between launches of the staging loop; huge blocks crowd the
// occurrence stage out of shared memory and force the degenerate
// global-probe fallback. The default (ThreadsPerBlock) sits in the
// flat middle of this curve — the design choice DESIGN.md calls out.
func BenchmarkDeviceTrialsPerBlock(b *testing.B) {
	s := benchScenario(b, true)
	in := &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio}
	for _, tpb := range []int{32, 128, 256, 1024} {
		eng := &Chunked{TrialsPerBlock: tpb}
		b.Run(fmt.Sprintf("tpb=%d", tpb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(context.Background(), in, Config{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(eng.LastStats.BlockCycles), "devcycles")
		})
	}
}

// blockedInput is the repository benchmark's spill-expected and
// trial-sampled book shape — 3 000 events × 48 contracts × 40
// locations, two layers a contract, so 96 flat layer slots — over
// 64 000 materialized trial years, with its flat layout built. On this
// book most pre-applied recoveries are zero and most slots of a trial
// are never touched, which a 16-slot book cannot show.
func blockedInput(b *testing.B) *Input {
	b.Helper()
	blockedOnce.Do(func() {
		s, err := synth.Build(context.Background(), synth.Params{
			Seed: 1, NumEvents: 3_000, NumContracts: 48,
			LocationsPerContract: 40, NumTrials: 64_000, TwoLayers: true,
		})
		if err != nil {
			blockedErr = err
			return
		}
		blockedIn = &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio}
		_, blockedErr = blockedIn.EnsureFlat()
	})
	if blockedErr != nil {
		b.Fatal(blockedErr)
	}
	return blockedIn
}

// benchBlocked runs the trial kernel single-threaded over the blocked
// benchmark book, without and with per-contract tables, and reports
// nanoseconds per trial occurrence.
func benchBlocked(b *testing.B, cfg Config) {
	in := blockedInput(b)
	for _, pc := range []bool{false, true} {
		cfg.PerContract = pc
		b.Run(fmt.Sprintf("perContract=%v", pc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (Sequential{}).Run(context.Background(), in, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(in.YELT.Len())), "ns/occ")
		})
	}
}

func BenchmarkBlockedExpected(b *testing.B) { benchBlocked(b, Config{}) }

func BenchmarkBlockedSampled(b *testing.B) { benchBlocked(b, Config{Sampling: true, Seed: 1}) }
