// Root benchmark harness: one benchmark (family) per experiment
// E1–E11 and E15–E18 from EXPERIMENTS.md (E12–E14 compared kernel
// generations that were deleted). Absolute numbers are machine-dependent; the
// *shapes* asserted in EXPERIMENTS.md (who wins, by roughly what
// factor) are what reproduce the paper. cmd/benchtables prints the
// richer tables; these benches give `go test -bench` one-line
// comparables per experiment.
package repro_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/cluster"
	"repro/internal/dfa"
	"repro/internal/diskstore"
	"repro/internal/faultinject"
	"repro/internal/gpusim"
	"repro/internal/layers"
	"repro/internal/mapreduce"
	"repro/internal/memstore"
	"repro/internal/rdbms"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/warehouse"
	"repro/internal/yelt"
	"repro/internal/ylt"
	"repro/risk"
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

// --- Loss-index ablation: the oracle's per-(occurrence × contract)
// binary-search loop, 100k trials on the default sparse book; its
// trials/s against BenchmarkE1SequentialEngine's is what the pre-joined
// scan-oriented layout buys. ---

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

func BenchmarkLegacyLookupKernel(b *testing.B) {
	in := idxBenchInput(b)
	cfg := aggregate.Config{Seed: 1, Sampling: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (aggregate.LegacyLookup{}).Run(context.Background(), in, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(idxBenchTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
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

// --- E5: scan vs indexed random access ---

func e5Table(b *testing.B, s *synth.Scenario) *rdbms.Table {
	b.Helper()
	tbl, err := rdbms.New(1, 64)
	if err != nil {
		b.Fatal(err)
	}
	loss := map[uint64]float64{}
	for _, e := range s.ELTs {
		for _, r := range e.Records {
			loss[uint64(r.EventID)] += r.MeanLoss
		}
	}
	for k, v := range loss {
		if err := tbl.Insert(k, []float64{v}); err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

func BenchmarkE5RandomAccess(b *testing.B) {
	s, _ := scenarios(b)
	tbl := e5Table(b, s)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, occ := range s.YELT.Occs {
			if v, ok := tbl.Get(uint64(occ.EventID)); ok {
				sink += v[0]
			}
		}
	}
	_ = sink
	b.ReportMetric(float64(len(s.YELT.Occs))*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

func BenchmarkE5Scan(b *testing.B) {
	s, _ := scenarios(b)
	tbl := e5Table(b, s)
	var maxID uint32
	for _, o := range s.YELT.Occs {
		if o.EventID > maxID {
			maxID = o.EventID
		}
	}
	counts := make([]float64, maxID+1)
	for _, o := range s.YELT.Occs {
		counts[o.EventID]++
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		if err := tbl.Scan(func(k uint64, vals []float64) error {
			sink += vals[0] * counts[k]
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	_ = sink
	b.ReportMetric(float64(len(s.YELT.Occs))*float64(b.N)/b.Elapsed().Seconds(), "equiv-lookups/s")
}

// --- E6: in-memory vs MapReduce-over-files per-trial aggregation ---

func lossVec(s *synth.Scenario) []float64 {
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

func BenchmarkE6InMemory(b *testing.B) {
	s, _ := scenarios(b)
	vec := lossVec(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := memstore.NewTable(memstore.Schema{
			Float64Cols: []string{"loss"}, Uint32Cols: []string{"trial"},
		}, nil, 1<<15)
		for trial := 0; trial < s.YELT.NumTrials; trial++ {
			for _, occ := range s.YELT.OccurrencesOf(trial) {
				var l float64
				if int(occ.EventID) < len(vec) {
					l = vec[occ.EventID]
				}
				if err := tbl.Append([]float64{l}, []uint32{uint32(trial)}); err != nil {
					b.Fatal(err)
				}
			}
		}
		sums := make([]float64, s.YELT.NumTrials)
		if err := tbl.Scan(func(v memstore.ChunkView) error {
			for r := 0; r < v.Rows(); r++ {
				sums[v.U32[0][r]] += v.F64[0][r]
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6MapReduce(b *testing.B) {
	s, _ := scenarios(b)
	vec := lossVec(s)
	dir, err := os.MkdirTemp("", "e6bench-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := diskstore.Create(dir, 4)
	if err != nil {
		b.Fatal(err)
	}
	const parts = 8
	per := (s.YELT.NumTrials + parts - 1) / parts
	type split struct{ part, lo, hi int }
	var splits []split
	for p := 0; p < parts; p++ {
		lo, hi := p*per, (p+1)*per
		if hi > s.YELT.NumTrials {
			hi = s.YELT.NumTrials
		}
		if lo >= hi {
			break
		}
		sub, err := s.YELT.Slice(lo, hi)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.WritePartition("yelt", p, func(w io.Writer) error {
			_, err := sub.WriteTo(w)
			return err
		}); err != nil {
			b.Fatal(err)
		}
		splits = append(splits, split{p, lo, hi})
	}
	sum := func(_ uint64, vs []float64) (float64, error) {
		var t float64
		for _, v := range vs {
			t += v
		}
		return t, nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := mapreduce.Run(context.Background(), splits,
			func(_ context.Context, sp split, emit func(uint64, float64)) error {
				return store.ReadPartition("yelt", sp.part, func(r io.Reader) error {
					sub, err := yelt.Read(r)
					if err != nil {
						return err
					}
					for trial := 0; trial < sub.NumTrials; trial++ {
						var t float64
						for _, occ := range sub.OccurrencesOf(trial) {
							if int(occ.EventID) < len(vec) {
								t += vec[occ.EventID]
							}
						}
						emit(uint64(sp.lo+trial), t)
					}
					return nil
				})
			}, sum, sum, mapreduce.Config{Reducers: 4})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: bounded-memory streaming stage 2 ---

// streamEnvelopeTrials exceeds every materialized benchmark in the
// file: the point of the streaming path is that trial count no longer
// multiplies resident memory.
const streamEnvelopeTrials = 1_000_000

// BenchmarkE10StreamingMillionTrials runs a fused 1M-trial stage 2
// (generation + aggregation, sampling on) without ever materializing
// the YELT, and reports the memory envelope: peak-resident trial bytes
// (peakMB) versus the table the run avoided building (matMB), plus
// their ratio (mat/peak — the ≥10× bounded-memory claim). Workers are
// pinned so the envelope is machine-independent.
func BenchmarkE10StreamingMillionTrials(b *testing.B) {
	s, _ := scenarios(b)
	cfg := aggregate.Config{Seed: 2, Sampling: true, Workers: 8, BatchTrials: 4096}
	var res *aggregate.Result
	var gen *yelt.Generator
	for i := 0; i < b.N; i++ {
		g, err := yelt.NewGenerator(s.Catalog, yelt.Config{NumTrials: streamEnvelopeTrials}, 7)
		if err != nil {
			b.Fatal(err)
		}
		in := &aggregate.Input{Source: g, ELTs: s.ELTs, Portfolio: s.Portfolio}
		res, err = (aggregate.Parallel{}).Run(context.Background(), in, cfg)
		if err != nil {
			b.Fatal(err)
		}
		gen = g
	}
	matBytes := yelt.TableBytes(streamEnvelopeTrials, gen.Streamed())
	b.ReportMetric(float64(streamEnvelopeTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
	b.ReportMetric(float64(res.PeakResidentBytes)/1e6, "peakMB")
	b.ReportMetric(float64(matBytes)/1e6, "matMB")
	b.ReportMetric(float64(matBytes)/float64(res.PeakResidentBytes), "mat/peak")
}

// BenchmarkE10MaterializedBaseline is the same 1M-trial stage 2
// through the materialized path (generate the table, then aggregate) —
// the throughput and memory baseline the streaming numbers compare
// against.
func BenchmarkE10MaterializedBaseline(b *testing.B) {
	s, _ := scenarios(b)
	cfg := aggregate.Config{Seed: 2, Sampling: true, Workers: 8}
	var res *aggregate.Result
	for i := 0; i < b.N; i++ {
		y, err := yelt.Generate(context.Background(), s.Catalog, yelt.Config{NumTrials: streamEnvelopeTrials}, 7)
		if err != nil {
			b.Fatal(err)
		}
		in := &aggregate.Input{YELT: y, ELTs: s.ELTs, Portfolio: s.Portfolio}
		res, err = (aggregate.Parallel{}).Run(context.Background(), in, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(streamEnvelopeTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
	b.ReportMetric(float64(res.PeakResidentBytes)/1e6, "peakMB")
}

// --- E11: partitioned stage 2 — MapReduce over re-derived, spilled, and materialized trials ---

// BenchmarkE11MapReduceRederive maps trial-range splits over the fused
// generator: every mapper read re-derives its trials (CPU traded for
// memory). Workers/batch pinned as in E10 so envelopes are comparable.
func BenchmarkE11MapReduceRederive(b *testing.B) {
	s, _ := scenarios(b)
	cfg := aggregate.Config{Seed: 2, Sampling: true, Workers: 8, BatchTrials: 4096}
	eng := aggregate.MapReduce{}
	var res *aggregate.Result
	for i := 0; i < b.N; i++ {
		g, err := yelt.NewGenerator(s.Catalog, yelt.Config{NumTrials: streamEnvelopeTrials}, 7)
		if err != nil {
			b.Fatal(err)
		}
		in := &aggregate.Input{Source: g, ELTs: s.ELTs, Portfolio: s.Portfolio}
		res, err = eng.Run(context.Background(), in, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(streamEnvelopeTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
	b.ReportMetric(float64(res.PeakResidentBytes)/1e6, "peakMB")
}

// BenchmarkE11MapReduceRescan spills the generated trials once into
// diskstore shards (outside the timer — the write is amortized across
// every later engine pass, which is the point of spilling), then times
// MapReduce passes that re-scan the shards from disk.
func BenchmarkE11MapReduceRescan(b *testing.B) {
	s, _ := scenarios(b)
	g, err := yelt.NewGenerator(s.Catalog, yelt.Config{NumTrials: streamEnvelopeTrials}, 7)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := yelt.SpillToDir(context.Background(), g, b.TempDir(), 0, aggregate.DefaultSpillParts(streamEnvelopeTrials), 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	shardBytes, err := ds.SizeBytes()
	if err != nil {
		b.Fatal(err)
	}
	cfg := aggregate.Config{Seed: 2, Sampling: true, Workers: 8, BatchTrials: 4096}
	eng := aggregate.MapReduce{}
	b.ResetTimer()
	var res *aggregate.Result
	for i := 0; i < b.N; i++ {
		in := &aggregate.Input{Source: ds, ELTs: s.ELTs, Portfolio: s.Portfolio}
		res, err = eng.Run(context.Background(), in, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(streamEnvelopeTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
	b.ReportMetric(float64(res.PeakResidentBytes)/1e6, "peakMB")
	b.ReportMetric(float64(shardBytes)/1e6, "shardMB")
}

// BenchmarkE11MapReduceMaterialized is the same MapReduce job over the
// fully materialized table (generated per iteration, like the E10
// baseline) — the memory-unconstrained comparison point.
func BenchmarkE11MapReduceMaterialized(b *testing.B) {
	s, _ := scenarios(b)
	cfg := aggregate.Config{Seed: 2, Sampling: true, Workers: 8}
	eng := aggregate.MapReduce{}
	var res *aggregate.Result
	for i := 0; i < b.N; i++ {
		y, err := yelt.Generate(context.Background(), s.Catalog, yelt.Config{NumTrials: streamEnvelopeTrials}, 7)
		if err != nil {
			b.Fatal(err)
		}
		in := &aggregate.Input{YELT: y, ELTs: s.ELTs, Portfolio: s.Portfolio}
		res, err = eng.Run(context.Background(), in, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(streamEnvelopeTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
	b.ReportMetric(float64(res.PeakResidentBytes)/1e6, "peakMB")
}

// --- E16: mapper placement over spilled shards ---

// benchPlacement spills once (outside the timer), then times MapReduce
// passes under the given mapper placement, reporting how many shard
// bytes each pass scanned node-locally vs pulled from a remote node.
// Results are bit-identical across placements; locality is the metric.
func benchPlacement(b *testing.B, place aggregate.Placement) {
	s, _ := scenarios(b)
	g, err := yelt.NewGenerator(s.Catalog, yelt.Config{NumTrials: streamEnvelopeTrials}, 7)
	if err != nil {
		b.Fatal(err)
	}
	parts := aggregate.DefaultSpillParts(streamEnvelopeTrials)
	if parts < 32 {
		parts = 32
	}
	ds, err := yelt.SpillToDir(context.Background(), g, b.TempDir(), 0, parts, 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := aggregate.Config{Seed: 2, Sampling: true, Workers: 8, BatchTrials: 4096}
	eng := aggregate.MapReduce{Placement: place}
	b.ResetTimer()
	var res *aggregate.Result
	for i := 0; i < b.N; i++ {
		in := &aggregate.Input{Source: ds, ELTs: s.ELTs, Portfolio: s.Portfolio}
		res, err = eng.Run(context.Background(), in, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(streamEnvelopeTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
	b.ReportMetric(float64(res.LocalBytes)/1e6, "localMB")
	b.ReportMetric(float64(res.RemoteBytes)/1e6, "remoteMB")
	if total := res.LocalBytes + res.RemoteBytes; total > 0 {
		b.ReportMetric(100*float64(res.LocalBytes)/float64(total), "local%")
	}
}

func BenchmarkE16AffinePlacement(b *testing.B) { benchPlacement(b, aggregate.PlaceAffine) }

func BenchmarkE16BlindPlacement(b *testing.B) { benchPlacement(b, aggregate.PlaceBlind) }

// --- E17: fault-tolerant stage 2 over replicated shards ---

// benchFault spills once at replication r=2 (outside the timer), then
// times MapReduce passes under the given deterministic fault spec.
// Every pass's result is bit-checked against a fault-free pass, so the
// timer covers completion *with* recovery — the fault-tolerance
// overhead is the metric, correctness is the invariant.
func benchFault(b *testing.B, spec string, speculate bool) {
	s, _ := scenarios(b)
	g, err := yelt.NewGenerator(s.Catalog, yelt.Config{NumTrials: streamEnvelopeTrials}, 7)
	if err != nil {
		b.Fatal(err)
	}
	parts := aggregate.DefaultSpillParts(streamEnvelopeTrials)
	if parts < 32 {
		parts = 32
	}
	ds, err := yelt.SpillToDir(context.Background(), g, b.TempDir(), 0, parts, 2, 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := aggregate.Config{Seed: 2, Sampling: true, Workers: 8, BatchTrials: 4096}
	want, err := aggregate.MapReduce{}.Run(context.Background(),
		&aggregate.Input{Source: ds, ELTs: s.ELTs, Portfolio: s.Portfolio}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := faultinject.Parse(spec, 42)
	if err != nil {
		b.Fatal(err)
	}
	eng := aggregate.MapReduce{MaxAttempts: 5, Speculate: speculate, Faults: plan}
	b.ResetTimer()
	var res *aggregate.Result
	for i := 0; i < b.N; i++ {
		in := &aggregate.Input{Source: ds, ELTs: s.ELTs, Portfolio: s.Portfolio}
		res, err = eng.Run(context.Background(), in, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for t := range want.Portfolio.Agg {
		if res.Portfolio.Agg[t] != want.Portfolio.Agg[t] {
			b.Fatalf("diverged from fault-free run at trial %d", t)
		}
	}
	b.ReportMetric(float64(streamEnvelopeTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
	b.ReportMetric(float64(res.MapRetries), "retries")
	b.ReportMetric(float64(res.ShardFailovers), "failovers")
	b.ReportMetric(float64(res.WorkersLost), "workersLost")
	b.ReportMetric(float64(res.SpecWins), "specWins")
}

func BenchmarkE17FaultFree(b *testing.B) { benchFault(b, "", false) }

func BenchmarkE17Rate10(b *testing.B) { benchFault(b, "rate=0.10", false) }

func BenchmarkE17RateAndKill(b *testing.B) { benchFault(b, "rate=0.10,kill=1@1", false) }

func BenchmarkE17Speculation(b *testing.B) { benchFault(b, "delay=0@40ms", true) }

// --- E7: provisioning policies over the bursty demand profile ---

func BenchmarkE7Elasticity(b *testing.B) {
	phases := cluster.PipelinePhases(3600)
	policies := []cluster.Policy{
		cluster.Static{N: 8}, cluster.Static{N: 5000}, cluster.Elastic{Max: 5000},
	}
	var results []*cluster.Result
	for i := 0; i < b.N; i++ {
		var err error
		results, err = cluster.Compare(phases, policies)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(results) == 3 {
		b.ReportMetric(100*results[1].Utilization, "staticUtil%")
		b.ReportMetric(100*results[2].Utilization, "elasticUtil%")
	}
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

// --- E15: client-observed quote latency through the serving tier — a
// warmed serve.Server over a shared risk.Study behind real HTTP. One
// closed-loop client, so ns/op is the full request path: admission,
// queue, per-contract aggregate simulation, JSON. cmd/benchtables -e 15
// adds the multi-client calm/active/burst table. ---

var (
	e15Once sync.Once
	e15TS   *httptest.Server
	e15Err  error
)

func e15Server(b *testing.B) *httptest.Server {
	b.Helper()
	e15Once.Do(func() {
		study := risk.NewStudy(risk.Config{
			Seed: 42, Events: 2_000, Contracts: 8, LocationsPerContract: 150,
			Trials: 5_000, MeanEventsPerYear: 10, Rho: 0.2, Workers: 1,
		})
		srv := serve.New(study, serve.Config{Workers: runtime.GOMAXPROCS(0), DefaultTrials: 2_000})
		if err := srv.Warm(context.Background()); err != nil {
			e15Err = err
			return
		}
		e15TS = httptest.NewServer(srv.Handler())
	})
	if e15Err != nil {
		b.Fatal(e15Err)
	}
	return e15TS
}

func BenchmarkE15QuoteLatency(b *testing.B) {
	ts := e15Server(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"contract": %d, "trials": 2000}`, i%8)
		resp, err := http.Post(ts.URL+"/v1/quote", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("quote status = %d", resp.StatusCode)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "quotes/s")
}

// --- E18: incremental warehouse cube — build, delta update, query ---

var (
	e18Once sync.Once
	e18PC   []*ylt.Table
	e18Err  error
)

// e18Tables runs stage 2 once over the cached scenario and returns
// the per-contract YLT registry every E18 benchmark builds from.
func e18Tables(b *testing.B) []*ylt.Table {
	b.Helper()
	s, _ := scenarios(b)
	e18Once.Do(func() {
		cfg := aggregate.Config{Seed: 1, Sampling: true, PerContract: true,
			Workers: runtime.GOMAXPROCS(0)}
		res, err := aggregate.Parallel{}.Run(context.Background(), aggInput(s), cfg)
		if err != nil {
			e18Err = err
			return
		}
		e18PC = res.PerContract
	})
	if e18Err != nil {
		b.Fatal(e18Err)
	}
	return e18PC
}

func BenchmarkE18BatchBuild(b *testing.B) {
	pc := e18Tables(b)
	in := &warehouse.Input{Tables: pc, Attrs: warehouse.DefaultAttrs(len(pc))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := warehouse.Build(context.Background(), in, warehouse.DefaultDims(), runtime.GOMAXPROCS(0)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE18IncrementalBuild(b *testing.B) {
	pc := e18Tables(b)
	attrs := warehouse.DefaultAttrs(len(pc))
	const batch = 1_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld, err := warehouse.NewBuilder(warehouse.DefaultDims(), attrs, benchTrials, runtime.GOMAXPROCS(0))
		if err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < benchTrials; lo += batch {
			k := batch
			if lo+k > benchTrials {
				k = benchTrials - lo
			}
			agg := make([][]float64, len(pc))
			occ := make([][]float64, len(pc))
			for ci, t := range pc {
				agg[ci] = t.Agg[lo : lo+k]
				occ[ci] = t.OccMax[lo : lo+k]
			}
			if err := bld.IngestBatch(lo, agg, occ); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := bld.Finalize(context.Background(), pc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE18Replace(b *testing.B) {
	pc := e18Tables(b)
	in := &warehouse.Input{Tables: pc, Attrs: warehouse.DefaultAttrs(len(pc))}
	cube, err := warehouse.Build(context.Background(), in, warehouse.DefaultDims(), runtime.GOMAXPROCS(0))
	if err != nil {
		b.Fatal(err)
	}
	target := len(pc) / 2
	cur := cube.Contract(target)
	next := &ylt.Table{Name: cur.Name,
		Agg: make([]float64, benchTrials), OccMax: make([]float64, benchTrials)}
	for i := range next.Agg {
		next.Agg[i] = cur.Agg[i] * 1.25
		next.OccMax[i] = cur.OccMax[i] * 1.25
	}
	b.ResetTimer()
	// Each iteration swaps the live table for the scaled one (or
	// back), so Replace always sees the registry's current bits.
	for i := 0; i < b.N; i++ {
		if _, err := cube.Replace(context.Background(), target, cur, next); err != nil {
			b.Fatal(err)
		}
		cur, next = next, cur
	}
}

func BenchmarkE18CubeQuery(b *testing.B) {
	pc := e18Tables(b)
	in := &warehouse.Input{Tables: pc, Attrs: warehouse.DefaultAttrs(len(pc))}
	cube, err := warehouse.Build(context.Background(), in, warehouse.DefaultDims(), runtime.GOMAXPROCS(0))
	if err != nil {
		b.Fatal(err)
	}
	filter := map[string]string{"region": "coastal"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.Query(filter); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE18DirectQuery(b *testing.B) {
	pc := e18Tables(b)
	in := &warehouse.Input{Tables: pc, Attrs: warehouse.DefaultAttrs(len(pc))}
	cube, err := warehouse.Build(context.Background(), in, warehouse.DefaultDims(), runtime.GOMAXPROCS(0))
	if err != nil {
		b.Fatal(err)
	}
	filter := map[string]string{"region": "coastal"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.RecomputeCell(filter); err != nil {
			b.Fatal(err)
		}
	}
}
