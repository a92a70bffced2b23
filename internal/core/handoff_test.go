package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/cluster"
	"repro/internal/diskstore"
	"repro/internal/ylt"
)

// The two-process handoff contract: a pipeline that only spills
// (SpillStage2) followed by a separate pipeline that re-attaches
// (SpillAttach) must reproduce the fused spilled run bit-for-bit —
// the trial data crosses the process boundary through the shard files
// and manifest alone, the book is re-derived from the seed.
func TestTwoProcessHandoffBitIdentical(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	fusedCfg := smallConfig(11)
	fusedCfg.Spill = true
	fusedCfg.Engine = aggregate.MapReduce{SplitTrials: 400}
	fused := New(fusedCfg)
	if _, err := fused.Run(ctx); err != nil {
		t.Fatal(err)
	}

	// Process A: stage 1 + spill, no aggregation.
	spillCfg := smallConfig(11)
	spillCfg.Spill = true
	spillCfg.SpillDir = dir
	spiller := New(spillCfg)
	if err := spiller.SpillStage2(ctx); err != nil {
		t.Fatal(err)
	}
	if spiller.CatYLT != nil {
		t.Fatal("spill half must not aggregate")
	}

	// Process B: fresh pipeline, re-attach and aggregate. NumTrials is
	// deliberately wrong — the shards must decide.
	aggCfg := smallConfig(11)
	aggCfg.SpillAttach = true
	aggCfg.SpillDir = dir
	aggCfg.NumTrials = 999_999
	aggCfg.Engine = aggregate.MapReduce{SplitTrials: 400}
	agg := New(aggCfg)
	rep, err := agg.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Cfg.NumTrials != smallConfig(11).NumTrials {
		t.Fatalf("attached trial count %d, want %d from shards", agg.Cfg.NumTrials, smallConfig(11).NumTrials)
	}
	var attach *StageReport
	for i := range rep.Stages {
		if rep.Stages[i].Name == "yelt-attach" {
			attach = &rep.Stages[i]
		}
		if rep.Stages[i].Name == "yelt-spill" {
			t.Fatal("attach half recorded a yelt-spill line it never performed")
		}
	}
	if attach == nil || attach.OutputBytes <= 0 {
		t.Fatalf("no yelt-attach stage line with bytes in %+v", rep.Stages)
	}
	if len(fused.CatYLT.Agg) != len(agg.CatYLT.Agg) {
		t.Fatalf("trial counts differ: fused %d vs attached %d", len(fused.CatYLT.Agg), len(agg.CatYLT.Agg))
	}
	for i := range fused.CatYLT.Agg {
		if fused.CatYLT.Agg[i] != agg.CatYLT.Agg[i] {
			t.Fatalf("trial %d: fused %v vs attached %v", i, fused.CatYLT.Agg[i], agg.CatYLT.Agg[i])
		}
		if fused.CatYLT.OccMax[i] != agg.CatYLT.OccMax[i] {
			t.Fatalf("trial %d: occ-max diverged", i)
		}
	}
}

func TestSpillStage2RequiresDir(t *testing.T) {
	p := New(smallConfig(3))
	if err := p.SpillStage2(context.Background()); err == nil {
		t.Fatal("SpillStage2 without SpillDir should refuse")
	}
	cfg := smallConfig(3)
	cfg.SpillAttach = true
	if _, err := New(cfg).Run(context.Background()); err == nil {
		t.Fatal("SpillAttach without SpillDir should refuse")
	}
}

// A shard lost between the spill and aggregate processes must fail the
// attach with an error naming the shard — never aggregate a short book.
func TestAttachRefusesDamagedSpill(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := smallConfig(5)
	cfg.Spill = true
	cfg.SpillDir = dir
	cfg.SpillParts = 4
	if err := New(cfg).SpillStage2(ctx); err != nil {
		t.Fatal(err)
	}
	store, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.RemoveAt("yelt", 2, store.ReplicaNodesFor(2, 1)[0]); err != nil {
		t.Fatal(err)
	}
	aggCfg := smallConfig(5)
	aggCfg.SpillAttach = true
	aggCfg.SpillDir = dir
	_, err = New(aggCfg).Run(ctx)
	if err == nil {
		t.Fatal("attach over a damaged spill should refuse")
	}
	if !strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("error %q does not name the missing shard", err)
	}
}

// Under a provisioning policy every stage report carries the
// allocated-vs-busy processor-time columns, with workers driven by the
// policy: elastic follows each stage's demand, static pins the fleet.
func TestProvisionedStageAccounting(t *testing.T) {
	cfg := smallConfig(9)
	cfg.Provision = cluster.Elastic{Max: 4}
	p := New(cfg)
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Stages {
		if s.Name == "loss-index" || s.Name == "yelt-attach" {
			continue // sub-stage lines don't carry worker accounting
		}
		if s.Workers <= 0 || s.Workers > 4 {
			t.Fatalf("stage %q provisioned %d workers under elastic:4", s.Name, s.Workers)
		}
		if s.AllocatedProcSecs <= 0 || s.BusyProcSecs <= 0 {
			t.Fatalf("stage %q missing processor-time accounting: %+v", s.Name, s)
		}
		if s.BusyProcSecs > s.AllocatedProcSecs*1.01 {
			t.Fatalf("stage %q busier than allocated: busy=%v alloc=%v", s.Name, s.BusyProcSecs, s.AllocatedProcSecs)
		}
	}
	// risk-modelling demand is 3 contracts: elastic provisions 3, not 4.
	if rep.Stages[0].Workers != 3 {
		t.Fatalf("risk-modelling workers = %d, want demand-driven 3", rep.Stages[0].Workers)
	}

	staticCfg := smallConfig(9)
	staticCfg.Provision = cluster.Static{N: 2}
	sp := New(staticCfg)
	srep, err := sp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range srep.Stages {
		if s.Name == "loss-index" || s.Name == "yelt-attach" {
			continue
		}
		if s.Workers != 2 {
			t.Fatalf("stage %q workers = %d under static:2", s.Name, s.Workers)
		}
	}
	// A spilled run bills its shard write too: under static:1 the
	// yelt-spill line is written by, and billed for, one worker.
	spillCfg := smallConfig(9)
	spillCfg.Provision = cluster.Static{N: 1}
	spillCfg.Spill = true
	spillCfg.SpillParts = 3
	spilled := New(spillCfg)
	sprep, err := spilled.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var sawSpill bool
	for _, s := range sprep.Stages {
		if s.Name == "loss-index" {
			continue
		}
		sawSpill = sawSpill || s.Name == "yelt-spill"
		if s.Workers != 1 || s.AllocatedProcSecs <= 0 {
			t.Fatalf("stage %q under static:1 with spill: workers %d, allocated %v proc-s; want 1 and > 0",
				s.Name, s.Workers, s.AllocatedProcSecs)
		}
	}
	if !sawSpill {
		t.Fatal("spilled run reported no yelt-spill stage")
	}

	// Provisioning is a scheduling lever: the catastrophe and
	// enterprise tables must match the unprovisioned run bit for bit.
	base := New(smallConfig(9))
	if _, err := base.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name string
		p    *Pipeline
	}{{"elastic:4", p}, {"static:2", sp}, {"static:1 spilled", spilled}} {
		for _, tbl := range []struct {
			name      string
			got, want *ylt.Table
		}{
			{"catastrophe", run.p.CatYLT, base.CatYLT},
			{"enterprise", run.p.DFAResult.Enterprise, base.DFAResult.Enterprise},
		} {
			if len(tbl.got.Agg) != len(tbl.want.Agg) || len(tbl.got.OccMax) != len(tbl.want.OccMax) {
				t.Fatalf("%s %s: %d trials, unprovisioned %d", run.name, tbl.name, len(tbl.got.Agg), len(tbl.want.Agg))
			}
			for i := range tbl.want.Agg {
				if math.Float64bits(tbl.got.Agg[i]) != math.Float64bits(tbl.want.Agg[i]) ||
					math.Float64bits(tbl.got.OccMax[i]) != math.Float64bits(tbl.want.OccMax[i]) {
					t.Fatalf("%s %s trial %d: (%v, %v), unprovisioned (%v, %v)", run.name, tbl.name, i,
						tbl.got.Agg[i], tbl.got.OccMax[i], tbl.want.Agg[i], tbl.want.OccMax[i])
				}
			}
		}
	}
}
