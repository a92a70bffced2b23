package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/faultinject"
	"repro/internal/metrics"
)

func smallConfig(seed uint64) Config {
	return Config{
		Seed:                 seed,
		NumEvents:            600,
		NumContracts:         3,
		LocationsPerContract: 80,
		MeanEventsPerYear:    10,
		NumTrials:            1500,
		Rho:                  0.2,
		TwoLayers:            true,
	}
}

func TestFullPipelineRuns(t *testing.T) {
	p := New(smallConfig(1))
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stages) != 4 {
		t.Fatalf("stages = %d", len(rep.Stages))
	}
	names := []string{"risk-modelling", "loss-index", "portfolio-risk", "dfa"}
	for i, s := range rep.Stages {
		if s.Name != names[i] {
			t.Fatalf("stage %d = %q", i, s.Name)
		}
		if s.Duration <= 0 {
			t.Fatalf("stage %q has no duration", s.Name)
		}
		if s.OutputBytes <= 0 {
			t.Fatalf("stage %q reports no output data", s.Name)
		}
	}
	if rep.Catastrophe == nil || rep.Enterprise == nil {
		t.Fatal("summaries missing")
	}
	if rep.Catastrophe.AAL <= 0 {
		t.Fatal("cat AAL should be positive")
	}
	// Enterprise risk includes non-cat sources: its volatility should
	// exceed the cat book's alone... not necessarily AAL (investment
	// income offsets), so assert on spread.
	if rep.Enterprise.AggStdDev <= 0 {
		t.Fatal("enterprise spread should be positive")
	}
}

// A spilled pipeline must report the extra yelt-spill stage line,
// produce per-trial losses bit-identical to the materialized path, and
// never materialize the YELT on the pipeline.
func TestPipelineSpilledStage2(t *testing.T) {
	mat := New(smallConfig(7))
	if _, err := mat.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(7)
	cfg.Spill = true
	cfg.SpillParts = 4
	cfg.Engine = aggregate.MapReduce{SplitTrials: 400}
	cfg.BatchTrials = 128
	sp := New(cfg)
	rep, err := sp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var spillLine *StageReport
	for i := range rep.Stages {
		if rep.Stages[i].Name == "yelt-spill" {
			spillLine = &rep.Stages[i]
		}
	}
	if spillLine == nil {
		t.Fatalf("no yelt-spill stage line in %v", rep.Stages)
	}
	if spillLine.Items != 4 {
		t.Fatalf("spill shards = %d, want 4", spillLine.Items)
	}
	if spillLine.OutputBytes <= 0 {
		t.Fatal("spill line reports no bytes written")
	}
	for i := range mat.CatYLT.Agg {
		if mat.CatYLT.Agg[i] != sp.CatYLT.Agg[i] {
			t.Fatalf("trial %d: materialized %v vs spilled %v", i, mat.CatYLT.Agg[i], sp.CatYLT.Agg[i])
		}
	}
}

// stageLine returns the named line of a report.
func stageLine(t *testing.T, rep *Report, name string) StageReport {
	t.Helper()
	for _, s := range rep.Stages {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no %s stage line in %v", name, rep.Stages)
	return StageReport{}
}

// A streaming pipeline must be indistinguishable from a materialized
// one in the losses it reports, bit for bit, and differ only in what it
// keeps resident: no YELT on the pipeline, and a portfolio-risk line
// that accounts the batch envelope instead of the table.
func TestPipelineStreamingMatchesMaterialized(t *testing.T) {
	mat := New(smallConfig(9))
	matRep, err := mat.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(9)
	cfg.Streaming = true
	cfg.BatchTrials = 137 // does not divide the 1500 trials
	str := New(cfg)
	strRep, err := str.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mat.CatYLT, str.CatYLT) {
		t.Fatal("streaming catastrophe YLT differs from the materialized one")
	}
	matS2 := stageLine(t, matRep, "portfolio-risk").OutputBytes
	strS2 := stageLine(t, strRep, "portfolio-risk").OutputBytes
	if strS2 <= 0 || strS2 >= matS2 {
		t.Fatalf("streaming stage-2 bytes %d not below materialized %d", strS2, matS2)
	}
}

// Chaos at the layer riskpipeline drives: a MapReduce run over a
// replicated spill whose every first shard read fails, with speculation
// on, must reproduce the fault-free losses and the live-fed cube bit
// for bit and carry its recoveries on the portfolio-risk line alone.
func TestPipelineChaosCountersOnStageReport(t *testing.T) {
	base := smallConfig(33)
	base.Engine = aggregate.MapReduce{}
	base.Spill = true
	base.SpillNodes = 3
	base.SpillReplicas = 2
	base.CubeDims = []string{"region", "lob"}
	calm := New(base)
	calmRep, err := calm.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range calmRep.Stages {
		if s.Faults.Any() {
			t.Fatalf("fault-free run reports recoveries on %s: %+v", s.Name, s.Faults)
		}
	}

	cfg := base
	cfg.Faults, err = faultinject.Parse("shard=*@1", base.Seed) // every (shard, node) site's first read fails
	if err != nil {
		t.Fatal(err)
	}
	cfg.Speculate = true
	chaos := New(cfg)
	rep, err := chaos.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(calm.CatYLT, chaos.CatYLT) {
		t.Fatal("losses under injected faults differ from the fault-free run")
	}
	stageLine(t, calmRep, "warehouse")
	stageLine(t, rep, "warehouse")
	cubesBitIdentical(t, "chaos", chaos.Cube, calm.Cube)
	for _, s := range rep.Stages {
		if s.Name != "portfolio-risk" && s.Faults.Any() {
			t.Fatalf("stage %s reports recoveries: %+v", s.Name, s.Faults)
		}
	}
	f := stageLine(t, rep, "portfolio-risk").Faults
	if f.MapFailures == 0 {
		t.Fatalf("no injected failures recorded: %+v", f)
	}
	if f.MapRetries+f.ShardFailovers == 0 {
		t.Fatalf("no recovery recorded: %+v", f)
	}
}

// Only the engine with a failure model runs a fault plan or
// speculation. Under any other, stage 2 refuses them before it
// generates a trial, naming the engine, where it used to install the
// plan on the spill store anyway and fail on the first injected read
// (or, for speculation alone, ignore it).
func TestStage2RefusesChaosWithoutMapReduce(t *testing.T) {
	plan, err := faultinject.Parse("shard=*@1", 34)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []aggregate.Engine{aggregate.Parallel{}, aggregate.Sequential{}} {
		for _, tc := range []struct {
			name      string
			faults    *faultinject.Plan
			speculate bool
			replicas  int
		}{
			{"chaos", plan, false, 1},
			{"chaos replicated", plan, false, 2},
			{"speculate", nil, true, 1},
		} {
			t.Run(engine.Name()+"/"+tc.name, func(t *testing.T) {
				cfg := smallConfig(34)
				cfg.Engine = engine
				cfg.Spill, cfg.SpillNodes, cfg.SpillReplicas = true, 3, tc.replicas
				cfg.Faults, cfg.Speculate = tc.faults, tc.speculate
				p := New(cfg)
				if err := p.RunStage1(context.Background()); err != nil {
					t.Fatal(err)
				}
				err := p.RunStage2(context.Background())
				want := "engine " + engine.Name() + " has no failure model"
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("RunStage2: %v, want an error naming %q", err, want)
				}
				if cfg.CheckFaultEngine() == nil {
					t.Fatal("CheckFaultEngine accepted what RunStage2 refused")
				}
				for _, s := range p.Stages {
					if s.Name == "yelt-spill" || s.Name == "portfolio-risk" {
						t.Fatalf("stage 2 ran its %s stage before refusing", s.Name)
					}
				}
			})
		}
	}
	cfg := smallConfig(34)
	cfg.Engine, cfg.Faults, cfg.Speculate = aggregate.MapReduce{}, plan, true
	if err := cfg.CheckFaultEngine(); err != nil {
		t.Fatalf("MapReduce under chaos and speculation refused: %v", err)
	}
}

func TestPipelineDataBurst(t *testing.T) {
	// The paper's observation: stage 2's data volume dwarfs stage 1's.
	p := New(smallConfig(2))
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]StageReport{}
	for _, s := range rep.Stages {
		byName[s.Name] = s
	}
	if byName["portfolio-risk"].OutputBytes <= byName["risk-modelling"].OutputBytes {
		t.Fatalf("stage-2 output (%d B) should exceed stage-1 (%d B)",
			byName["portfolio-risk"].OutputBytes, byName["risk-modelling"].OutputBytes)
	}
	// The pre-joined index trades a constant-factor memory overhead over
	// the raw ELTs for scan-order access; it must report its volume —
	// including the flat kernel layout built alongside it.
	if byName["loss-index"].OutputBytes <= 0 {
		t.Fatal("loss-index stage reports no bytes")
	}
	if p.Index == nil {
		t.Fatal("pipeline did not retain the loss index")
	}
	if p.Flat == nil {
		t.Fatal("pipeline did not retain the flat kernel layout")
	}
	if byName["loss-index"].OutputBytes <= p.Index.SizeBytes() {
		t.Fatal("loss-index stage line does not include the flat layout bytes")
	}
}

func TestStageOrderEnforced(t *testing.T) {
	p := New(smallConfig(3))
	if err := p.RunStage2(context.Background()); err == nil {
		t.Fatal("stage 2 without stage 1 should error")
	}
	if err := p.RunStage3(context.Background()); err == nil {
		t.Fatal("stage 3 without stage 2 should error")
	}
}

func TestPipelineDeterministic(t *testing.T) {
	a := New(smallConfig(4))
	if _, err := a.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	b := New(smallConfig(4))
	if _, err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if a.CatYLT.Mean() != b.CatYLT.Mean() {
		t.Fatal("pipeline not reproducible")
	}
	for i := range a.DFAResult.Enterprise.Agg {
		if a.DFAResult.Enterprise.Agg[i] != b.DFAResult.Enterprise.Agg[i] {
			t.Fatalf("enterprise trial %d differs", i)
		}
	}
}

func TestEngineChoice(t *testing.T) {
	cfg := smallConfig(5)
	cfg.Engine = aggregate.Sequential{}
	seq := New(cfg)
	if _, err := seq.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cfg2 := smallConfig(5)
	cfg2.Engine = aggregate.Parallel{}
	par := New(cfg2)
	if _, err := par.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := range seq.CatYLT.Agg {
		if seq.CatYLT.Agg[i] != par.CatYLT.Agg[i] {
			t.Fatal("engines disagree inside the pipeline")
		}
	}
}

// Stage 1 is idempotent: a second RunStage1 (or a full Run after a
// quote path already triggered stage 1) must keep the existing
// artifacts and append no duplicate stage lines.
func TestStage1Idempotent(t *testing.T) {
	p := New(smallConfig(8))
	if err := p.RunStage1(context.Background()); err != nil {
		t.Fatal(err)
	}
	cat, idx := p.Catalog, p.Index
	if err := p.RunStage1(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p.Catalog != cat || p.Index != idx {
		t.Fatal("second RunStage1 regenerated stage-1 artifacts")
	}
	if len(p.Stages) != 2 {
		t.Fatalf("stages after two RunStage1 = %d, want 2", len(p.Stages))
	}
}

// The serving lifecycle: RunStage1 first (a quote warm-up), then a
// full Run for the portfolio report. Stage 1 must not re-execute and
// every stage must report exactly one line.
func TestRunAfterStage1NoDuplicateStageLines(t *testing.T) {
	p := New(smallConfig(9))
	if err := p.RunStage1(context.Background()); err != nil {
		t.Fatal(err)
	}
	cat := p.Catalog
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p.Catalog != cat {
		t.Fatal("Run re-executed stage 1 from scratch")
	}
	counts := map[string]int{}
	for _, s := range rep.Stages {
		counts[s.Name]++
	}
	for _, name := range []string{"risk-modelling", "loss-index", "portfolio-risk", "dfa"} {
		if counts[name] != 1 {
			t.Fatalf("stage %q has %d report lines, want 1 (stages: %v)", name, counts[name], rep.Stages)
		}
	}
	if len(rep.Stages) != 4 {
		t.Fatalf("stages = %d, want 4", len(rep.Stages))
	}
}

// An engine sweep re-running stage 2 on one pipeline (as benchtables
// does) must refresh the portfolio-risk line in place, not accumulate
// one line per run — and the swept engines must agree bit-identically.
func TestRepeatedStage2ReplacesStageLine(t *testing.T) {
	p := New(smallConfig(10))
	if err := p.RunStage1(context.Background()); err != nil {
		t.Fatal(err)
	}
	var ref []float64
	for i, eng := range []aggregate.Engine{aggregate.Parallel{}, aggregate.Sequential{}, aggregate.MapReduce{}} {
		p.Cfg.Engine = eng
		if err := p.RunStage2(context.Background()); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = append(ref, p.CatYLT.Agg...)
		} else {
			for t2 := range ref {
				if ref[t2] != p.CatYLT.Agg[t2] {
					t.Fatalf("engine sweep diverged at trial %d", t2)
				}
			}
		}
	}
	counts := map[string]int{}
	for _, s := range p.Stages {
		counts[s.Name]++
	}
	if counts["portfolio-risk"] != 1 {
		t.Fatalf("portfolio-risk lines = %d after 3 stage-2 runs, want 1", counts["portfolio-risk"])
	}
	if len(p.Stages) != 3 {
		t.Fatalf("stages = %d, want 3 (risk-modelling, loss-index, portfolio-risk)", len(p.Stages))
	}
}

// A returned report is the caller's: re-running a stage on the same
// pipeline must not rewrite the stage lines it already handed out.
func TestReportStagesOutliveRerun(t *testing.T) {
	p := New(smallConfig(12))
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	before := stageLine(t, rep, "portfolio-risk")
	p.Cfg.Engine = aggregate.Sequential{}
	if err := p.RunStage2(context.Background()); err != nil {
		t.Fatal(err)
	}
	if after := stageLine(t, rep, "portfolio-risk"); after != before {
		t.Fatalf("report's portfolio-risk line moved after a stage-2 re-run:\n before %+v\n after  %+v", before, after)
	}
}

// A non-spill stage-2 re-run supersedes an earlier spilled run: the
// stale yelt-spill line must not linger in the report.
func TestStage2RerunDropsStaleSpillLine(t *testing.T) {
	cfg := smallConfig(11)
	cfg.Spill = true
	cfg.SpillParts = 2
	p := New(cfg)
	if err := p.RunStage1(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := p.RunStage2(context.Background()); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range p.Stages {
		if s.Name == "yelt-spill" {
			found = true
		}
	}
	if !found {
		t.Fatal("spilled run did not report a yelt-spill line")
	}
	p.Cfg.Spill = false
	if err := p.RunStage2(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, s := range p.Stages {
		if s.Name == "yelt-spill" {
			t.Fatal("stale yelt-spill line survived a non-spill re-run")
		}
	}
}

func TestCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New(smallConfig(6))
	if _, err := p.Run(ctx); err == nil {
		t.Fatal("cancelled pipeline should fail")
	}
}

// Run builds both reports from the columns stage 3 already sorted
// (ReportViews); they must be the reports a fresh Summarize of each
// table gives. The pipeline asks for no per-source tables, and the dfa
// stage line says so in bytes while still counting every source's
// trials as items.
func TestRunReportsEqualSummarize(t *testing.T) {
	p := New(smallConfig(5))
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantCat, err := metrics.Summarize(p.CatYLT)
	if err != nil {
		t.Fatal(err)
	}
	wantEnt, err := metrics.Summarize(p.DFAResult.Enterprise)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Catastrophe, wantCat) || !reflect.DeepEqual(rep.Enterprise, wantEnt) {
		t.Fatalf("reports differ from Summarize:\n%v\n%v\n%v\n%v", rep.Catastrophe, wantCat, rep.Enterprise, wantEnt)
	}
	if p.DFAResult.PerSource != nil {
		t.Fatal("the pipeline built per-source tables nobody reads")
	}
	stage := rep.Stages[len(rep.Stages)-1]
	n := int64(p.CatYLT.NumTrials())
	if want := p.CatYLT.SizeBytes() + p.DFAResult.Enterprise.SizeBytes(); stage.Name != "dfa" || stage.OutputBytes != want || stage.Items != n*8 {
		t.Fatalf("dfa stage line %+v, want %d bytes and %d items", stage, want, n*8)
	}
}
