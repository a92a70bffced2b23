// Cross-module integration tests: end-to-end shape assertions for the
// experiment claims (fast, scaled-down versions of EXPERIMENTS.md) and
// failure-injection scenarios across the storage/compute substrates.
package repro_test

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"strings"
	"sync"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/catmodel"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/synth"
	"repro/internal/yelt"
	"repro/internal/ylt"
)

func smallScenario(t *testing.T, seed uint64, occOnly bool) *synth.Scenario {
	t.Helper()
	p := synth.Small(seed)
	p.OccurrenceOnly = occOnly
	s, err := synth.Build(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// readLog is a trial source that records where each read began, so a
// test can see how an engine split the trial range.
type readLog struct {
	yelt.Source
	mu     sync.Mutex
	starts map[int]int
}

func (l *readLog) ReadTrials(ctx context.Context, lo, hi int, buf *yelt.Table) (*yelt.Table, error) {
	l.mu.Lock()
	l.starts[lo]++
	l.mu.Unlock()
	return l.Source.ReadTrials(ctx, lo, hi, buf)
}

// E1 shape: the parallel engine really splits the trial range across
// its workers, and doing so changes no bit of the YLT. Whether the
// split is faster is a wall-clock question: bench/ asks it, over
// paired runs; a test cannot.
func TestShapeParallelMatchesSequential(t *testing.T) {
	p := synth.Small(3)
	p.NumTrials = 30_000
	s, err := synth.Build(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	cfg := aggregate.Config{Seed: 1, Sampling: true, Workers: workers}
	run := func(e aggregate.Engine) (*aggregate.Result, map[int]int) {
		log := &readLog{Source: s.YELT, starts: make(map[int]int)}
		res, err := e.Run(context.Background(), &aggregate.Input{Source: log, ELTs: s.ELTs, Portfolio: s.Portfolio}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, log.starts
	}
	seq, _ := run(aggregate.Sequential{})
	par, starts := run(aggregate.Parallel{})

	ranges := stream.Partition(p.NumTrials, workers)
	if len(ranges) != workers {
		t.Fatalf("partition of %d trials has %d ranges, want %d", p.NumTrials, len(ranges), workers)
	}
	for _, r := range ranges {
		if starts[r.Lo] != 1 {
			t.Fatalf("parallel engine began %d reads at trial %d, the start of a worker's range; reads began at %v", starts[r.Lo], r.Lo, starts)
		}
	}
	if len(seq.Portfolio.Agg) != p.NumTrials || len(par.Portfolio.Agg) != p.NumTrials {
		t.Fatalf("YLT lengths %d and %d, want %d", len(seq.Portfolio.Agg), len(par.Portfolio.Agg), p.NumTrials)
	}
	for i := range seq.Portfolio.Agg {
		if math.Float64bits(seq.Portfolio.Agg[i]) != math.Float64bits(par.Portfolio.Agg[i]) ||
			math.Float64bits(seq.Portfolio.OccMax[i]) != math.Float64bits(par.Portfolio.OccMax[i]) {
			t.Fatalf("trial %d: parallel (%v, %v), sequential (%v, %v)", i,
				par.Portfolio.Agg[i], par.Portfolio.OccMax[i], seq.Portfolio.Agg[i], seq.Portfolio.OccMax[i])
		}
	}
}

// E4 shape: chunked device kernel must cost fewer modeled cycles than
// the naive kernel while agreeing numerically with the host engines.
func TestShapeChunkingBeatsNaive(t *testing.T) {
	s := smallScenario(t, 4, true)
	in := &aggregate.Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio}
	seq, err := (aggregate.Sequential{}).Run(context.Background(), in, aggregate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	chunked := &aggregate.Chunked{}
	cres, err := chunked.Run(context.Background(), in, aggregate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	naive := &aggregate.Chunked{Naive: true}
	if _, err := naive.Run(context.Background(), in, aggregate.Config{}); err != nil {
		t.Fatal(err)
	}
	if chunked.LastStats.BlockCycles*2 > naive.LastStats.BlockCycles {
		t.Fatalf("chunking advantage below 2x: %d vs %d cycles",
			chunked.LastStats.BlockCycles, naive.LastStats.BlockCycles)
	}
	for i := range seq.Portfolio.Agg {
		if math.Abs(seq.Portfolio.Agg[i]-cres.Portfolio.Agg[i]) > 1e-9*(1+seq.Portfolio.Agg[i]) {
			t.Fatalf("device result diverges from host at trial %d", i)
		}
	}
}

// E5 shape: the scan-oriented engine agrees with the random-access
// oracle bit for bit, in expected and sampling mode, and reads at least
// ten times fewer records. LegacyLookup binary-searches each contract's
// ELT once per occurrence, reading bits.Len(n) of an n-record table's
// records; Sequential probes the pre-joined index's row for the event
// and reads its packed entries, which are exactly the book's contracts
// whose ELT gives the event a positive mean loss. Both counts come from
// the data, not from a counter in either engine, and no wall clock is
// asserted.
func TestShapeScanBeatsRandomAccess(t *testing.T) {
	s := smallScenario(t, 5, false)
	ctx := context.Background()
	in := &aggregate.Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio}
	flat, err := in.EnsureFlat()
	if err != nil {
		t.Fatal(err)
	}
	var perOcc, scanReads int64
	for _, c := range s.Portfolio.Contracts {
		perOcc += int64(bits.Len(uint(len(s.ELTs[c.ELTIndex].Records))))
	}
	for _, event := range s.YELT.Occs {
		lo, hi := flat.Span(event)
		var bearing int32
		for _, c := range s.Portfolio.Contracts {
			if r, ok := s.ELTs[c.ELTIndex].Lookup(event); ok && r.MeanLoss > 0 {
				bearing++
			}
		}
		if hi-lo != bearing {
			t.Fatalf("event %d: the scan reads %d entries, %d contracts carry a loss for it", event, hi-lo, bearing)
		}
		scanReads += int64(1 + hi - lo)
	}
	randReads := perOcc * int64(len(s.YELT.Occs))
	t.Logf("record reads: random %d, scan %d (%.1fx)", randReads, scanReads, float64(randReads)/float64(scanReads))
	if randReads < 10*scanReads {
		t.Fatalf("random record reads %d should be at least 10x the scan's %d", randReads, scanReads)
	}

	for _, sampling := range []bool{false, true} {
		cfg := aggregate.Config{Seed: 5, Sampling: sampling}
		want, err := (aggregate.LegacyLookup{}).Run(ctx, in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := (aggregate.Sequential{}).Run(ctx, in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Portfolio.Agg {
			if math.Float64bits(got.Portfolio.Agg[i]) != math.Float64bits(want.Portfolio.Agg[i]) ||
				math.Float64bits(got.Portfolio.OccMax[i]) != math.Float64bits(want.Portfolio.OccMax[i]) {
				t.Fatalf("sampling=%v trial %d: Sequential (%v, %v), LegacyLookup (%v, %v)", sampling, i,
					got.Portfolio.Agg[i], got.Portfolio.OccMax[i], want.Portfolio.Agg[i], want.Portfolio.OccMax[i])
			}
		}
	}
}

// E6 shape: the two strategies E6 times are two engines over one book,
// and they must agree bit for bit: MapReduce over the table spilled to
// shards on disk equals Parallel over the resident table, with sampling
// on, for the portfolio and every contract. The MapReduce run must
// really have scanned the shards.
func TestShapeMapReduceMatchesDirect(t *testing.T) {
	s := smallScenario(t, 6, false)
	ctx := context.Background()
	cfg := aggregate.Config{Seed: 3, Sampling: true, PerContract: true, Workers: 2}
	mem, err := (aggregate.Parallel{}).Run(ctx, &aggregate.Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := yelt.SpillToDir(ctx, s.YELT, t.TempDir(), 3, 5, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := (aggregate.MapReduce{}).Run(ctx, &aggregate.Input{Source: ds, ELTs: s.ELTs, Portfolio: s.Portfolio}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	size, err := ds.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if scanned := mr.LocalBytes + mr.RemoteBytes; scanned != size {
		t.Fatalf("MapReduce scanned %d shard bytes, the spill holds %d", scanned, size)
	}
	if len(mr.PerContract) != len(s.Portfolio.Contracts) || len(mem.PerContract) != len(s.Portfolio.Contracts) {
		t.Fatalf("per-contract tables: MapReduce %d, Parallel %d, book %d", len(mr.PerContract), len(mem.PerContract), len(s.Portfolio.Contracts))
	}
	pairs := [][2]*ylt.Table{{mr.Portfolio, mem.Portfolio}}
	for ci := range mem.PerContract {
		pairs = append(pairs, [2]*ylt.Table{mr.PerContract[ci], mem.PerContract[ci]})
	}
	for k, p := range pairs {
		got, want := p[0], p[1]
		if len(got.Agg) != s.YELT.NumTrials || len(want.Agg) != s.YELT.NumTrials {
			t.Fatalf("table %d: %d and %d trials, want %d", k, len(got.Agg), len(want.Agg), s.YELT.NumTrials)
		}
		for i := range want.Agg {
			if math.Float64bits(got.Agg[i]) != math.Float64bits(want.Agg[i]) ||
				math.Float64bits(got.OccMax[i]) != math.Float64bits(want.OccMax[i]) {
				t.Fatalf("table %d (0 = portfolio) trial %d: MapReduce (%v, %v), Parallel (%v, %v)", k, i,
					got.Agg[i], got.OccMax[i], want.Agg[i], want.OccMax[i])
			}
		}
	}
}

// Failure injection: a corrupted shard with no other replica must fail
// the MapReduce engine with a diagnosable error once its retries are
// spent, not hang, misreport or return a short YLT.
func TestFailureInjectionCorruptPartition(t *testing.T) {
	s := smallScenario(t, 7, false)
	ctx := context.Background()
	ds, err := yelt.SpillToDir(ctx, s.YELT, t.TempDir(), 2, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Store().CorruptAt("yelt", 1, ds.ShardNodes(1)[0]); err != nil {
		t.Fatal(err)
	}
	res, err := (aggregate.MapReduce{MaxAttempts: 2}).Run(ctx,
		&aggregate.Input{Source: ds, ELTs: s.ELTs, Portfolio: s.Portfolio}, aggregate.Config{Workers: 2})
	if !errors.Is(err, mapreduce.ErrTooManyFailures) {
		t.Fatalf("err = %v, want ErrTooManyFailures", err)
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("err = %v: does not name shard 1", err)
	}
	if res != nil {
		t.Fatalf("a failed run returned a result: %+v", res)
	}
}

// Post-event estimation is a stage-1 engine call: for one database,
// the estimate's gross mean for every event of contract 1's ELT is that
// record's MeanLoss bit for bit (same footprint, same interests, same
// order of additions). ExposedValue is not compared: Run leaves out the
// interests whose gross moments are both zero, the estimate counts them.
func TestPostEventConsistentWithELT(t *testing.T) {
	s := smallScenario(t, 8, false)
	est, err := catmodel.New().PostEvent(s.Exposures[:1])
	if err != nil {
		t.Fatal(err)
	}
	if s.ELTs[0].Len() == 0 {
		t.Fatal("contract 1 has an empty ELT: nothing compared")
	}
	for _, r := range s.ELTs[0].Records {
		ev, ok := s.Catalog.Lookup(r.EventID)
		if !ok {
			t.Fatalf("ELT event %d is not in the catalogue", r.EventID)
		}
		res, err := est.Estimate(context.Background(), ev)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.GrossMean) != math.Float64bits(r.MeanLoss) {
			t.Fatalf("event %d: post-event gross %v, ELT mean %v", r.EventID, res.GrossMean, r.MeanLoss)
		}
	}
}

// E7 shape, measured: under an elastic policy the pipeline provisions
// stage 2 wider than stage 1, read from a run's stage reports. Stage 1
// asks for one worker per contract, stage 2 for one per mapper split,
// so a book of two contracts over three splits' worth of trials gets 2
// and 3; stage 2's busy time is measured map-task time.
func TestShapeStage2DominatesStage1(t *testing.T) {
	p := core.New(core.Config{
		Seed: 3, NumEvents: 300, NumContracts: 2, LocationsPerContract: 30,
		MeanEventsPerYear: 10, NumTrials: 3 * aggregate.DefaultSplitTrials,
		Engine: aggregate.MapReduce{}, Provision: cluster.Elastic{Max: 64},
	})
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]core.StageReport{}
	for _, s := range rep.Stages {
		stages[s.Name] = s
	}
	stage1, stage2 := stages["risk-modelling"], stages["portfolio-risk"]
	if stage1.Workers != 2 || stage2.Workers != 3 {
		t.Fatalf("workers: risk-modelling %d, portfolio-risk %d; want 2 and 3", stage1.Workers, stage2.Workers)
	}
	if stage2.BusyProcSecs <= 0 || stage2.BusyProcSecs > stage2.AllocatedProcSecs*1.01 {
		t.Fatalf("portfolio-risk busy %v of %v allocated processor-seconds", stage2.BusyProcSecs, stage2.AllocatedProcSecs)
	}
}

// Metrics sanity across the whole pipeline: OEP <= AEP at every return
// period of a real stage-2 output.
func TestShapeOEPBelowAEP(t *testing.T) {
	s := smallScenario(t, 9, false)
	res, err := (aggregate.Parallel{}).Run(context.Background(),
		&aggregate.Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio},
		aggregate.Config{Seed: 2, Sampling: true})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := metrics.Summarize(res.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range sum.ReturnRows {
		if row.OEP > row.AEP+1e-9 {
			t.Fatalf("RP %v: OEP %v > AEP %v", row.ReturnPeriod, row.OEP, row.AEP)
		}
	}
}
