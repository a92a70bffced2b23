package risk

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func smallConfig(seed uint64) Config {
	return Config{
		Seed:                 seed,
		Events:               600,
		Contracts:            3,
		LocationsPerContract: 80,
		Trials:               1500,
		MeanEventsPerYear:    10,
		Rho:                  0.2,
	}
}

func TestStudyRun(t *testing.T) {
	study := NewStudy(smallConfig(1))
	rep, err := study.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stages) != 4 {
		t.Fatalf("stages = %d", len(rep.Stages))
	}
	if rep.Catastrophe.AAL <= 0 {
		t.Fatal("cat AAL should be positive")
	}
	if rep.Catastrophe.TVaR99 < rep.Catastrophe.VaR99 {
		t.Fatal("TVaR < VaR")
	}
	rows := rep.Catastrophe.ReturnRows
	if len(rows) == 0 {
		t.Fatal("no return periods")
	}
	if i := slices.IndexFunc(rows, func(r metrics.ReturnRow) bool { return r.ReturnPeriod == 100 }); i < 0 || rows[i].AEP <= 0 {
		t.Fatalf("100-year AEP missing or zero: %+v", rows)
	}
}

// The reinstatements engine must run end to end through the public
// API.
func TestStudyReinstatementsEngine(t *testing.T) {
	cfg := smallConfig(7)
	cfg.Engine = "reinstatements"
	cfg.Sampling = true
	rep, err := NewStudy(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Catastrophe.AAL <= 0 {
		t.Fatal("cat AAL should be positive")
	}
}

func TestLossesAccessors(t *testing.T) {
	study := NewStudy(smallConfig(2))
	if _, err := study.CatastropheLosses(); err == nil {
		t.Fatal("losses before Run should error")
	}
	if _, err := study.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cat, err := study.CatastropheLosses()
	if err != nil {
		t.Fatal(err)
	}
	if len(cat) != 1500 {
		t.Fatalf("cat losses = %d", len(cat))
	}
	// Accessors must return copies.
	cat[0] = -12345
	cat2, _ := study.CatastropheLosses()
	if cat2[0] == -12345 {
		t.Fatal("CatastropheLosses leaked internal state")
	}
}

func TestPriceContract(t *testing.T) {
	study := NewStudy(smallConfig(3))
	q, err := study.PriceContract(context.Background(), 0, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if q.Trials != 20_000 {
		t.Fatalf("trials = %d", q.Trials)
	}
	if q.AAL < 0 || q.Premium < q.AAL {
		t.Fatalf("quote inconsistent: %+v", q)
	}
	if q.Elapsed <= 0 {
		t.Fatal("no timing")
	}
	if _, err := study.PriceContract(context.Background(), 99, 1000); err == nil {
		t.Fatal("out-of-range contract should error")
	}
}

func TestEngineKinds(t *testing.T) {
	for _, k := range []EngineKind{"sequential", EngineParallel, "mapreduce", "reinstatements", ""} {
		if _, err := k.engine(); err != nil {
			t.Errorf("engine %q: %v", k, err)
		}
	}
	if _, err := EngineKind("warp-drive").engine(); err == nil {
		t.Fatal("unknown engine should error")
	}
	// The device engines cannot run a study's book and are not offered.
	if _, err := EngineKind("chunked").engine(); err == nil || !strings.Contains(err.Error(), `unknown engine "chunked"`) {
		t.Fatalf("chunked engine: %v, want unknown engine", err)
	}
}

func TestSequentialEngineStudy(t *testing.T) {
	cfg := smallConfig(4)
	cfg.Engine = "sequential"
	rep, err := NewStudy(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := smallConfig(4)
	cfg2.Engine = EngineParallel
	rep2, err := NewStudy(cfg2).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Catastrophe.AAL != rep2.Catastrophe.AAL {
		t.Fatal("engines disagree through the public API")
	}
}

func TestIntegrateEnterprise(t *testing.T) {
	study := NewStudy(smallConfig(5))
	if _, err := study.IntegrateEnterprise(context.Background(), nil, 0.2); err == nil {
		t.Fatal("integrate before Run should error")
	}
	if _, err := study.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := study.IntegrateEnterprise(context.Background(), nil, 0.2); err == nil {
		t.Fatal("nil sources should error")
	}
}

func TestRunModellingOnly(t *testing.T) {
	study := NewStudy(smallConfig(6))
	if err := study.RunModelling(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := study.RunModelling(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Pricing works with modelling only.
	if _, err := study.PriceContract(context.Background(), 1, 5000); err != nil {
		t.Fatal(err)
	}
}
