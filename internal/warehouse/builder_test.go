package warehouse

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/ylt"
)

// testBook builds an occurrence-bearing per-contract book with three
// attribute dimensions, for the equivalence matrix.
func testBook(nc, n int) ([]*ylt.Table, []map[string]string) {
	st := rng.New(99)
	tables := make([]*ylt.Table, nc)
	for i := range tables {
		t := ylt.New("c", n)
		for j := range t.Agg {
			t.Agg[j] = st.Pareto(1000, 2.5)
			t.OccMax[j] = t.Agg[j] * 0.8
		}
		tables[i] = t
	}
	return tables, DefaultAttrs(nc)
}

// ingestAll feeds the full trial space to a builder in batches of the
// given size, in parallel across the given worker count — the same
// disjoint-range delivery the pipeline performs.
func ingestAll(t *testing.T, b *Builder, tables []*ylt.Table, batch, workers int) {
	t.Helper()
	ranges := stream.Chunks(b.n, batch)
	err := stream.ForEach(context.Background(), len(ranges), workers, func(_ context.Context, i int) error {
		return ingestRange(b, tables, ranges[i])
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ingestRange folds one trial range of every contract into b.
func ingestRange(b *Builder, tables []*ylt.Table, r stream.Range) error {
	agg := make([][]float64, len(tables))
	occ := make([][]float64, len(tables))
	for ci, tbl := range tables {
		agg[ci] = tbl.Agg[r.Lo:r.Hi]
		occ[ci] = tbl.OccMax[r.Lo:r.Hi]
	}
	return b.IngestBatch(r.Lo, agg, occ)
}

// buildCube builds the cube over tables the one way there is: a
// Builder fed in batches that do not divide the trial count, then
// Finalize with the tables as the registry.
func buildCube(t *testing.T, tables []*ylt.Table, attrs []map[string]string, dims []string, workers int) *Cube {
	t.Helper()
	n := tables[0].NumTrials()
	b, err := NewBuilder(dims, attrs, n, workers)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, b, tables, n/3+1, workers)
	cube, err := b.Finalize(context.Background(), tables)
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

// cellFilters maps every cell key of a cube over dims and attrs to a
// Query filter that names it.
func cellFilters(dims []string, attrs []map[string]string) map[string]map[string]string {
	out := map[string]map[string]string{}
	for _, subset := range subsets(dims) {
		for _, a := range attrs {
			filter := map[string]string{}
			for _, d := range subset {
				filter[d] = a[d]
			}
			out[groupKey(subset, a)] = filter
		}
	}
	return out
}

// requireCubesIdentical asserts the same cells with the same member
// counts and equal summaries, over bit-identical registries.
func requireCubesIdentical(t *testing.T, got, want *Cube) {
	t.Helper()
	if !reflect.DeepEqual(got.Keys(), want.Keys()) {
		t.Fatalf("cell keys differ: %v vs %v", got.Keys(), want.Keys())
	}
	for _, key := range want.Keys() {
		g, w := got.cells[key], want.cells[key]
		if g.Members != w.Members {
			t.Fatalf("%s: members %d vs %d", key, g.Members, w.Members)
		}
		if !reflect.DeepEqual(g.Summary, w.Summary) {
			t.Fatalf("%s: summaries differ: %+v vs %+v", key, g.Summary, w.Summary)
		}
	}
	if len(got.tables) != len(want.tables) {
		t.Fatalf("registries hold %d vs %d tables", len(got.tables), len(want.tables))
	}
	for ci := range want.tables {
		if !sameBits(got.tables[ci], want.tables[ci]) {
			t.Fatalf("registry table %d differs", ci)
		}
	}
}

// TestIncrementalMatchesBatch is the equivalence suite: across
// dimension counts, worker counts, and batch sizes that do not divide
// the trial space, every cell's folded columns are bit-identical, trial
// by trial, to ylt.Combine of the cell's registry members (the batch
// fold RecomputeCell and Replace run), and every finalized summary is
// that combination's summary. Finalize then releases the columns.
func TestIncrementalMatchesBatch(t *testing.T) {
	const n = 1000
	tables, attrs := testBook(8, n)
	allDims := []string{"region", "lob", "peril"}
	for nd := 1; nd <= len(allDims); nd++ {
		dims := allDims[:nd]
		_, members := cellMembers(dims, attrs)
		refs := map[string]*ylt.Table{}
		sums := map[string]*metrics.Summary{}
		for key, idxs := range members {
			tbls := make([]*ylt.Table, len(idxs))
			for i, ci := range idxs {
				tbls[i] = tables[ci]
			}
			ref, err := ylt.Combine(key, tbls...)
			if err != nil {
				t.Fatal(err)
			}
			if sums[key], err = metrics.Summarize(ref); err != nil {
				t.Fatal(err)
			}
			refs[key] = ref
		}
		for _, workers := range []int{1, 4} {
			for _, batch := range []int{7, 997, n} {
				b, err := NewBuilder(dims, attrs, n, workers)
				if err != nil {
					t.Fatal(err)
				}
				ingestAll(t, b, tables, batch, workers)
				for key, ref := range refs {
					acc := b.cells[key]
					for i := range ref.Agg {
						if math.Float64bits(acc.agg[i]) != math.Float64bits(ref.Agg[i]) ||
							math.Float64bits(acc.occ[i]) != math.Float64bits(ref.OccMax[i]) {
							t.Fatalf("dims %v workers %d batch %d: %s trial %d: fold (%x, %x) vs combine (%x, %x)",
								dims, workers, batch, key, i,
								math.Float64bits(acc.agg[i]), math.Float64bits(acc.occ[i]),
								math.Float64bits(ref.Agg[i]), math.Float64bits(ref.OccMax[i]))
						}
					}
				}
				cube, err := b.Finalize(context.Background(), tables)
				if err != nil {
					t.Fatal(err)
				}
				if b.FoldDuration() <= 0 {
					t.Fatal("fold duration not accounted")
				}
				if cube.Cells() != len(refs) {
					t.Fatalf("%d cells, want %d", cube.Cells(), len(refs))
				}
				for key, want := range sums {
					if got := cube.cells[key]; got.Members != len(members[key]) || !reflect.DeepEqual(got.Summary, want) {
						t.Fatalf("%s: cell %+v, want %d members and %+v", key, got, len(members[key]), want)
					}
					if acc := b.cells[key]; acc.agg != nil || acc.occ != nil {
						t.Fatalf("%s: Finalize kept the fold columns", key)
					}
				}
			}
		}
	}
}

// TestReplaceMatchesRebuild pins delta updates: after Replace, the
// cube is identical to a Builder rebuild with the new table, and
// untouched cells keep their original materializations.
func TestReplaceMatchesRebuild(t *testing.T) {
	const n = 600
	tables, attrs := testBook(9, n)
	dims := []string{"region", "lob"}
	cube := buildCube(t, tables, attrs, dims, 4)

	// Re-price contract 2: scale its losses.
	const target = 2
	old := cube.Contract(target)
	repriced := ylt.New(old.Name, n)
	for i := range old.Agg {
		repriced.Agg[i] = old.Agg[i] * 1.17
		repriced.OccMax[i] = old.OccMax[i] * 1.17
	}

	// Remember an untouched cell's materialization (a region that
	// contract 2 does not belong to).
	otherRegion := map[string]string{"region": attrs[(target+1)%len(attrs)]["region"]}
	if otherRegion["region"] == attrs[target]["region"] {
		otherRegion["region"] = attrs[(target+2)%len(attrs)]["region"]
	}
	before, err := cube.Query(otherRegion)
	if err != nil {
		t.Fatal(err)
	}

	touched, err := cube.Replace(context.Background(), target, old, repriced)
	if err != nil {
		t.Fatal(err)
	}
	if touched <= 0 || touched >= cube.Cells() {
		t.Fatalf("touched %d of %d cells", touched, cube.Cells())
	}

	after, err := cube.Query(otherRegion)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatal("untouched cell was rematerialized")
	}

	newTables := append([]*ylt.Table(nil), tables...)
	newTables[target] = repriced
	requireCubesIdentical(t, cube, buildCube(t, newTables, attrs, dims, 4))
}

func TestReplaceValidation(t *testing.T) {
	const n = 100
	tables, attrs := testBook(4, n)
	cube := buildCube(t, tables, attrs, []string{"region"}, 2)
	fresh := ylt.New("x", n)

	if _, err := cube.Replace(context.Background(), -1, tables[0], fresh); err == nil {
		t.Fatal("out-of-range contract should error")
	}
	if _, err := cube.Replace(context.Background(), 0, tables[1], fresh); !errors.Is(err, ErrStaleTable) {
		t.Fatalf("stale old table: err = %v", err)
	}
	if _, err := cube.Replace(context.Background(), 0, tables[0], ylt.New("x", n+1)); !errors.Is(err, ylt.ErrTrialMismatch) {
		t.Fatalf("trial mismatch: err = %v", err)
	}
	if _, err := cube.Replace(context.Background(), 0, tables[0], ylt.NewAggOnly("x", n)); !errors.Is(err, ylt.ErrOccurrenceMismatch) {
		t.Fatalf("occurrence mismatch: err = %v", err)
	}

	// A bitwise-equal copy (not the same pointer) is an acceptable
	// oldYLT — callers may hold a deserialized view.
	copyOld := ylt.New(tables[0].Name, n)
	copy(copyOld.Agg, tables[0].Agg)
	copy(copyOld.OccMax, tables[0].OccMax)
	if _, err := cube.Replace(context.Background(), 0, copyOld, fresh); err != nil {
		t.Fatalf("bitwise-equal old table rejected: %v", err)
	}
}

// TestRecomputeCellMatchesPrecomputed holds every cell's pre-computed
// summary to the one RecomputeCell re-derives from the registry. Twelve
// contracts give cells of three and four members, where a fold in
// another member order would move the low bits.
func TestRecomputeCellMatchesPrecomputed(t *testing.T) {
	tables, attrs := testBook(12, 400)
	dims := []string{"region", "lob"}
	cube := buildCube(t, tables, attrs, dims, 2)
	filters := cellFilters(dims, attrs)
	if len(filters) != cube.Cells() {
		t.Fatalf("%d filters for %d cells", len(filters), cube.Cells())
	}
	for key, filter := range filters {
		cell, err := cube.Query(filter)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := cube.RecomputeCell(filter)
		if err != nil {
			t.Fatal(err)
		}
		if cell.Key != key || !reflect.DeepEqual(cell.Summary, direct) {
			t.Fatalf("%s: precomputed %+v != recomputed %+v", key, cell.Summary, direct)
		}
	}
	if _, err := cube.RecomputeCell(map[string]string{"region": "atlantis"}); !errors.Is(err, ErrNoCell) {
		t.Fatalf("missing cell: err = %v", err)
	}
}

// TestBuilderValidation pins what Finalize refuses after ingest: a
// latched ingest error, a partly folded trial space, a registry that
// is nil or misaligned; and that a finalized builder ingests nothing.
// NewBuilder's own refusals are TestBuildValidation's.
func TestBuilderValidation(t *testing.T) {
	tables, attrs := testBook(3, 50)
	b, err := NewBuilder([]string{"region"}, attrs, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	mkRows := func(k int) ([][]float64, [][]float64) {
		agg := make([][]float64, len(tables))
		occ := make([][]float64, len(tables))
		for ci := range tables {
			agg[ci] = make([]float64, k)
			occ[ci] = make([]float64, k)
		}
		return agg, occ
	}
	agg, occ := mkRows(10)
	if err := b.IngestBatch(45, agg, occ); err == nil {
		t.Fatal("out-of-range batch should error")
	}
	if err := b.IngestBatch(0, agg[:1], occ); err == nil {
		t.Fatal("short contract rows should error")
	}
	// The latched error must surface from Finalize even if later
	// ingests are clean.
	ingestAll(t, b, tables, 50, 1)
	if _, err := b.Finalize(context.Background(), tables); err == nil {
		t.Fatal("Finalize should report latched ingest error")
	}

	// Incomplete coverage: only half the trial space folded.
	b2, err := NewBuilder([]string{"region"}, attrs, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	agg, occ = mkRows(25)
	if err := b2.IngestBatch(0, agg, occ); err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Finalize(context.Background(), tables); err == nil {
		t.Fatal("partial coverage should error")
	}

	// Ingest after Finalize is rejected.
	b3, err := NewBuilder([]string{"region"}, attrs, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, b3, tables, 50, 1)
	if _, err := b3.Finalize(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	agg, occ = mkRows(10)
	if err := b3.IngestBatch(0, agg, occ); err == nil {
		t.Fatal("ingest after Finalize should error")
	}

	// Every cube carries its registry: nil and short ones are refused.
	for _, reg := range [][]*ylt.Table{nil, tables[:2]} {
		b4, err := NewBuilder([]string{"region"}, attrs, 50, 1)
		if err != nil {
			t.Fatal(err)
		}
		ingestAll(t, b4, tables, 50, 1)
		if _, err := b4.Finalize(context.Background(), reg); err == nil {
			t.Fatalf("a registry of %d tables should error", len(reg))
		}
	}
}

// TestFinalizeRequiresExactTiling pins that the folded trial ranges
// must tile the trial space: a range folded twice is refused even when
// another range of the same length was never folded, which a per-
// contract trial count cannot tell from a complete build.
func TestFinalizeRequiresExactTiling(t *testing.T) {
	tables, attrs := testBook(3, 50)
	for _, tc := range []struct {
		name   string
		ranges []stream.Range
		ok     bool
	}{
		{"twice-and-never", []stream.Range{{Lo: 0, Hi: 25}, {Lo: 0, Hi: 25}}, false},
		{"overlap", []stream.Range{{Lo: 0, Hi: 30}, {Lo: 20, Hi: 40}, {Lo: 40, Hi: 50}}, false},
		{"gap", []stream.Range{{Lo: 0, Hi: 20}, {Lo: 30, Hi: 50}}, false},
		{"out-of-order", []stream.Range{{Lo: 25, Hi: 50}, {Lo: 0, Hi: 10}, {Lo: 10, Hi: 25}}, true},
	} {
		b, err := NewBuilder([]string{"region"}, attrs, 50, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tc.ranges {
			if err := ingestRange(b, tables, r); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := b.Finalize(context.Background(), tables); (err == nil) != tc.ok {
			t.Fatalf("%s: Finalize err = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
}
