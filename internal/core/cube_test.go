package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/metrics"
	"repro/internal/warehouse"
	"repro/internal/ylt"
)

// TestPipelineCubeStage pins the warehouse stage line and the
// cross-engine equivalence of the pipeline-built cube: every host
// engine feeds it live — Sequential and Parallel per batch, MapReduce
// per committed split — and all must materialize the same cube: a
// bit-identical registry and equal cell summaries.
func TestPipelineCubeStage(t *testing.T) {
	run := func(eng aggregate.Engine, streaming bool) *Pipeline {
		t.Helper()
		cfg := smallConfig(5)
		cfg.Engine = eng
		cfg.Streaming = streaming
		cfg.Sampling = true
		cfg.CubeDims = []string{"region", "lob"}
		p := New(cfg)
		if _, err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if p.Cube == nil {
			t.Fatal("pipeline did not materialize a cube")
		}
		return p
	}

	ref := run(aggregate.Parallel{}, false)
	var wh *StageReport
	for i := range ref.Stages {
		if ref.Stages[i].Name == "warehouse" {
			wh = &ref.Stages[i]
		}
	}
	if wh == nil {
		t.Fatalf("no warehouse stage line: %+v", ref.Stages)
	}
	if wh.Duration <= 0 || wh.OutputBytes <= 0 || wh.Items != int64(ref.Cube.Cells()) {
		t.Fatalf("warehouse line not accounted: %+v", wh)
	}
	if len(ref.AggResult.PerContract) != ref.Cfg.NumContracts || ref.Cube.Contract(ref.Cfg.NumContracts) != nil {
		t.Fatalf("stage 2 has %d per-contract tables for %d contracts", len(ref.AggResult.PerContract), ref.Cfg.NumContracts)
	}
	for i, tbl := range ref.AggResult.PerContract {
		if ref.Cube.Contract(i) != tbl {
			t.Fatalf("cube registry entry %d is not stage 2's table", i)
		}
	}

	for _, alt := range []struct {
		name      string
		eng       aggregate.Engine
		streaming bool
	}{
		{"sequential-streaming", aggregate.Sequential{}, true},
		{"mapreduce", aggregate.MapReduce{}, false},
	} {
		cubesBitIdentical(t, alt.name, run(alt.eng, alt.streaming).Cube, ref.Cube)
	}

	// A cube-less re-run drops the stage line and the cube.
	cfg := ref.Cfg
	cfg.CubeDims = nil
	p2 := New(cfg)
	if _, err := p2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p2.Cube != nil {
		t.Fatal("cube-less run left a cube")
	}
	for _, s := range p2.Stages {
		if s.Name == "warehouse" {
			t.Fatal("cube-less run left a warehouse stage line")
		}
	}
}

// TestPipelineCubeFoldOrder holds every cell of a pipeline-built cube
// to a fold written out here: the member contracts' registry tables, in
// ascending contract order, combined and summarized. Both the Builder's
// pre-computed summary and RecomputeCell's re-fold must equal it bit for
// bit. The book has 12 contracts, so its region cells have three
// members and its lob cells four, where a sum taken in another order
// shows in the low bits.
func TestPipelineCubeFoldOrder(t *testing.T) {
	cfg := smallConfig(11)
	cfg.NumContracts = 12
	cfg.Sampling = true
	cfg.CubeDims = []string{"region", "lob"}
	p := New(cfg)
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	attrs := warehouse.DefaultAttrs(cfg.NumContracts)
	widest := 0
	for _, key := range p.Cube.Keys() {
		filter := keyFilter(t, p.Cube, key)
		var members []*ylt.Table
		for i, a := range attrs {
			in := true
			for d, v := range filter {
				in = in && a[d] == v
			}
			if in {
				members = append(members, p.Cube.Contract(i))
			}
		}
		widest = max(widest, len(members))
		combined, err := ylt.Combine(key, members...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := metrics.Summarize(combined)
		if err != nil {
			t.Fatal(err)
		}
		cell, err := p.Cube.Query(filter)
		if err != nil {
			t.Fatal(err)
		}
		if cell.Members != len(members) {
			t.Fatalf("cell %s has %d members, the attributes give %d", key, cell.Members, len(members))
		}
		if !summariesSameBits(cell.Summary, want) {
			t.Fatalf("cell %s: pre-computed %+v, fold in contract order %+v", key, cell.Summary, want)
		}
		direct, err := p.Cube.RecomputeCell(filter)
		if err != nil {
			t.Fatal(err)
		}
		if !summariesSameBits(direct, want) {
			t.Fatalf("cell %s: recomputed %+v, fold in contract order %+v", key, direct, want)
		}
	}
	if widest < 3 {
		t.Fatalf("widest cell has %d members: a fold of fewer than three cannot show its order", widest)
	}
}

// summariesSameBits reports whether two summaries agree in every field,
// floats compared by their bits.
func summariesSameBits(a, b *metrics.Summary) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Name != b.Name || a.Trials != b.Trials || len(a.ReturnRows) != len(b.ReturnRows) {
		return false
	}
	for i, ra := range a.ReturnRows {
		rb := b.ReturnRows[i]
		if !same(ra.ReturnPeriod, rb.ReturnPeriod) || !same(ra.OEP, rb.OEP) || !same(ra.AEP, rb.AEP) {
			return false
		}
	}
	return same(a.AAL, b.AAL) && same(a.AggStdDev, b.AggStdDev) &&
		same(a.VaR99, b.VaR99) && same(a.TVaR99, b.TVaR99) &&
		same(a.VaR995, b.VaR995) && same(a.TVaR995, b.TVaR995)
}

// cubesBitIdentical fails the test unless got's registry is want's,
// bit for bit, and got has want's cells, each with an equal summary.
func cubesBitIdentical(t *testing.T, what string, got, want *warehouse.Cube) {
	t.Helper()
	for i := 0; want.Contract(i) != nil || got.Contract(i) != nil; i++ {
		g, w := got.Contract(i), want.Contract(i)
		if g == nil || w == nil || len(g.Agg) != len(w.Agg) || len(g.OccMax) != len(w.OccMax) {
			t.Fatalf("%s: registry entry %d: %v vs %v", what, i, g, w)
		}
		for j := range w.Agg {
			if math.Float64bits(g.Agg[j]) != math.Float64bits(w.Agg[j]) ||
				math.Float64bits(g.OccMax[j]) != math.Float64bits(w.OccMax[j]) {
				t.Fatalf("%s: contract %d trial %d differs from the reference", what, i, j)
			}
		}
	}
	if g, w := got.Keys(), want.Keys(); len(g) != len(w) {
		t.Fatalf("%s: %d cells vs %d", what, len(g), len(w))
	}
	for _, key := range want.Keys() {
		a, err := got.Query(keyFilter(t, got, key))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		b, _ := want.Query(keyFilter(t, want, key))
		if a.Members != b.Members || !reflect.DeepEqual(a.Summary, b.Summary) {
			t.Fatalf("%s: cell %s differs from the reference: %+v vs %+v", what, key, a, b)
		}
	}
}

// keyFilter reverses a cell key into a Query filter through the
// cube's own dimensions — enough for test keys without hostile
// characters.
func keyFilter(t *testing.T, c *warehouse.Cube, key string) map[string]string {
	t.Helper()
	filter := map[string]string{}
	for _, part := range splitList(key, ',') {
		kv := splitList(part, '=')
		if len(kv) != 2 {
			t.Fatalf("unparseable key %q", key)
		}
		filter[kv[0]] = kv[1]
	}
	return filter
}

func splitList(s string, sep byte) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == sep {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

// TestPipelineCubeOverReinstatementBook builds the cube over a book
// with standard reinstatement terms: every host engine feeds it live
// through the stateful walk, the cubes agree bit for bit, each cell
// equals the one its registry recomputes, and the premium column is on
// the stage-2 result.
func TestPipelineCubeOverReinstatementBook(t *testing.T) {
	run := func(eng aggregate.Engine) *Pipeline {
		t.Helper()
		cfg := smallConfig(5)
		cfg.Engine = eng
		cfg.Sampling = true
		cfg.Reinstatements = true
		cfg.CubeDims = []string{"region", "lob"}
		p := New(cfg)
		if _, err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return p
	}
	ref := run(aggregate.Parallel{})
	var premium float64
	for _, v := range ref.AggResult.Premium {
		premium += v
	}
	if len(ref.AggResult.Premium) != ref.Cfg.NumTrials || premium <= 0 {
		t.Fatalf("premium column: %d slots, total %g", len(ref.AggResult.Premium), premium)
	}
	for _, key := range ref.Cube.Keys() {
		filter := keyFilter(t, ref.Cube, key)
		cell, err := ref.Cube.Query(filter)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := ref.Cube.RecomputeCell(filter)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cell.Summary, direct) {
			t.Fatalf("cell %s: precomputed %+v != recomputed %+v", key, cell.Summary, direct)
		}
	}
	cubesBitIdentical(t, "mapreduce", run(aggregate.MapReduce{SplitTrials: 401}).Cube, ref.Cube)
}
