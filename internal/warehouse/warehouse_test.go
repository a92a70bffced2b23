package warehouse

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/ylt"
)

func testInput(nTables, nTrials int) ([]*ylt.Table, []map[string]string) {
	regions := []string{"coastal", "interior"}
	lobs := []string{"property", "marine"}
	st := rng.New(42)
	tables := make([]*ylt.Table, nTables)
	attrs := make([]map[string]string, nTables)
	for i := range tables {
		t := ylt.New("c", nTrials)
		for j := range t.Agg {
			t.Agg[j] = st.Pareto(1000, 2.5)
			t.OccMax[j] = t.Agg[j] * 0.8
		}
		tables[i] = t
		attrs[i] = map[string]string{
			"region": regions[i%2],
			"lob":    lobs[(i/2)%2],
		}
	}
	return tables, attrs
}

func TestBuildAndQuery(t *testing.T) {
	tables, attrs := testInput(8, 2000)
	cube := buildCube(t, tables, attrs, []string{"region", "lob"}, 4)
	// Groups: region (2) + lob (2) + region×lob (4) = 8 cells.
	if cube.Cells() != 8 {
		t.Fatalf("cells = %d, want 8 (%v)", cube.Cells(), cube.Keys())
	}
	cell, err := cube.Query(map[string]string{"region": "coastal"})
	if err != nil {
		t.Fatal(err)
	}
	if cell.Members != 4 {
		t.Fatalf("coastal members = %d", cell.Members)
	}
	if cell.Summary == nil || cell.Summary.AAL <= 0 {
		t.Fatal("summary not precomputed")
	}
	pair, err := cube.Query(map[string]string{"region": "coastal", "lob": "marine"})
	if err != nil {
		t.Fatal(err)
	}
	if pair.Members != 2 {
		t.Fatalf("coastal×marine members = %d", pair.Members)
	}
	if want := tables[0].SizeBytes() * int64(len(tables)); cube.SizeBytes() != want {
		t.Fatalf("SizeBytes = %d, want the registry's %d", cube.SizeBytes(), want)
	}
}

func TestCellMatchesDirectCombination(t *testing.T) {
	tables, attrs := testInput(4, 1000)
	cube := buildCube(t, tables, attrs, []string{"region"}, 2)
	cell, err := cube.Query(map[string]string{"region": "interior"})
	if err != nil {
		t.Fatal(err)
	}
	// Direct combination of the interior tables (indices 1, 3).
	combined, err := ylt.Combine(cell.Key, tables[1], tables[3])
	if err != nil {
		t.Fatal(err)
	}
	want, err := metrics.Summarize(combined)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cell.Summary, want) {
		t.Fatalf("cube summary %+v != direct %+v", cell.Summary, want)
	}
}

func TestQueryErrors(t *testing.T) {
	tables, attrs := testInput(4, 100)
	cube := buildCube(t, tables, attrs, []string{"region"}, 2)
	if _, err := cube.Query(map[string]string{"region": "atlantis"}); !errors.Is(err, ErrNoCell) {
		t.Fatalf("err = %v", err)
	}
	if _, err := cube.Query(map[string]string{"zone": "x"}); !errors.Is(err, ErrNoCell) {
		t.Fatal("non-cube dimension should error")
	}
	if _, err := cube.Query(nil); err == nil {
		t.Fatal("empty filter should error")
	}
}

// TestBuildValidation pins what NewBuilder refuses before any trial is
// folded: a bad dimension list, a bad trial count, and attribute sets
// that are missing or do not cover every dimension.
func TestBuildValidation(t *testing.T) {
	_, attrs := testInput(2, 100)
	if _, err := NewBuilder(nil, attrs, 100, 1); err == nil {
		t.Fatal("no dimensions should error")
	}
	if _, err := NewBuilder([]string{"a", "b", "c", "d", "e", "f", "g"}, attrs, 100, 1); err == nil {
		t.Fatal("too many dimensions should error")
	}
	if _, err := NewBuilder([]string{"nonexistent"}, attrs, 100, 1); err == nil {
		t.Fatal("missing attribute should error")
	}
	if _, err := NewBuilder([]string{"region"}, attrs, 0, 1); err == nil {
		t.Fatal("zero trials should error")
	}
	if _, err := NewBuilder([]string{"region"}, nil, 100, 1); err == nil {
		t.Fatal("no attrs should error")
	}
}

// TestKeyCollisionRegression pins the escaped key scheme: an
// attribute value containing the separator characters must not
// collide with the key of a different dimension combination. Before
// escaping, {"region": "a,lob=b"} under the {region} subset rendered
// the same key as {"region": "a", "lob": "b"} under {region, lob}.
func TestKeyCollisionRegression(t *testing.T) {
	n := 50
	mk := func(v float64) *ylt.Table {
		tbl := ylt.New("c", n)
		for j := range tbl.Agg {
			tbl.Agg[j] = v
			tbl.OccMax[j] = v
		}
		return tbl
	}
	cube := buildCube(t, []*ylt.Table{mk(1), mk(100)}, []map[string]string{
		{"region": "a", "lob": "b"},
		{"region": "a,lob=b", "lob": "z"},
	}, []string{"region", "lob"}, 2)
	// {region: a, lob: b} must hold only table 0...
	pair, err := cube.Query(map[string]string{"region": "a", "lob": "b"})
	if err != nil {
		t.Fatal(err)
	}
	if pair.Members != 1 || pair.Summary.AAL != 1 {
		t.Fatalf("collided cell: members=%d AAL=%v", pair.Members, pair.Summary.AAL)
	}
	// ...and the hostile single-dimension value must resolve to its
	// own distinct cell holding only table 1.
	hostile, err := cube.Query(map[string]string{"region": "a,lob=b"})
	if err != nil {
		t.Fatal(err)
	}
	if hostile.Members != 1 || hostile.Summary.AAL != 100 {
		t.Fatalf("hostile cell: members=%d AAL=%v", hostile.Members, hostile.Summary.AAL)
	}
	// Values differing only by escape-looking text stay distinct too.
	cube2 := buildCube(t, []*ylt.Table{mk(1), mk(2)}, []map[string]string{
		{"region": "x%2C"},
		{"region": "x,"},
	}, []string{"region"}, 1)
	if cube2.Cells() != 2 {
		t.Fatalf("escape-prefix values collided: %v", cube2.Keys())
	}
}

// TestDuplicateDimsRejected pins the duplicate-dimension bugfix:
// {"region","region"} used to enumerate the region subset twice and
// double-count every member.
func TestDuplicateDimsRejected(t *testing.T) {
	_, attrs := testInput(4, 50)
	for _, dims := range [][]string{{"region", "region"}, {"region", "lob", "region"}} {
		if _, err := NewBuilder(dims, attrs, 50, 1); err == nil {
			t.Fatalf("duplicate dims %v should be rejected", dims)
		}
	}
	if _, err := NewBuilder([]string{"region", "lob"}, attrs, 50, 1); err != nil {
		t.Fatalf("clean dims rejected: %v", err)
	}
}

// TestBuildTrialMismatch pins that a registry table whose trial count
// differs from the folded one is refused, so RecomputeCell and Replace
// never combine tables of different lengths.
func TestBuildTrialMismatch(t *testing.T) {
	tables, attrs := testInput(4, 100)
	b, err := NewBuilder([]string{"region"}, attrs, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, b, tables, 100, 1)
	// Tables 0 and 2 share region "coastal"; shortening table 2 would
	// make that group's recombination fail.
	short := append([]*ylt.Table(nil), tables...)
	short[2] = ylt.New("short", 50)
	if _, err := b.Finalize(context.Background(), short); err == nil {
		t.Fatal("a registry table of another trial count should be refused")
	}
}
