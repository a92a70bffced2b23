package yelt

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/catalog"
)

func testCatalog(t *testing.T, n int) *catalog.Catalog {
	t.Helper()
	cfg := catalog.DefaultConfig()
	cfg.NumEvents = n
	cfg.MeanEventsPerYear = 10
	cat, err := catalog.Generate(cfg, 1234)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestGenerateShape(t *testing.T) {
	cat := testCatalog(t, 2000)
	tbl, err := Generate(context.Background(), cat, Config{NumTrials: 5000}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumTrials != 5000 {
		t.Fatalf("NumTrials = %d", tbl.NumTrials)
	}
	if len(tbl.Offsets) != 5001 {
		t.Fatalf("Offsets length = %d", len(tbl.Offsets))
	}
	if tbl.Offsets[0] != 0 || tbl.Offsets[5000] != int64(len(tbl.Occs)) {
		t.Fatal("offset bookends wrong")
	}
	// Mean occurrences should match the catalogue rate (λ=10).
	if m := float64(tbl.Len()) / float64(tbl.NumTrials); math.Abs(m-10) > 0.3 {
		t.Fatalf("mean occurrences = %v, want ~10", m)
	}
}

func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	cat := testCatalog(t, 500)
	a, err := Generate(context.Background(), cat, Config{NumTrials: 2000, Workers: 1}, 77)
	if err != nil {
		t.Fatal(err)
	}
	// Workers 0 exercises the documented default (GOMAXPROCS).
	for _, workers := range []int{0, 7} {
		b, err := Generate(context.Background(), cat, Config{NumTrials: 2000, Workers: workers}, 77)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Occs) != len(b.Occs) {
			t.Fatalf("workers=%d: occurrence counts differ: %d vs %d", workers, len(a.Occs), len(b.Occs))
		}
		for i := range a.Occs {
			if a.Occs[i] != b.Occs[i] {
				t.Fatalf("workers=%d: occurrence %d differs across worker counts", workers, i)
			}
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	cat := testCatalog(t, 500)
	a, _ := Generate(context.Background(), cat, Config{NumTrials: 500}, 1)
	b, _ := Generate(context.Background(), cat, Config{NumTrials: 500}, 2)
	if a.Len() == b.Len() {
		same := true
		for i := range a.Occs {
			if a.Occs[i] != b.Occs[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical tables")
		}
	}
}

func TestTrialsSortedByDay(t *testing.T) {
	cat := testCatalog(t, 800)
	tbl, err := Generate(context.Background(), cat, Config{NumTrials: 1000}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < tbl.NumTrials; trial++ {
		occs := tbl.OccurrencesOf(trial)
		for i := 1; i < len(occs); i++ {
			if occs[i-1].DayOfYear > occs[i].DayOfYear {
				t.Fatalf("trial %d not sorted by day", trial)
			}
			if occs[i].DayOfYear > 364 {
				t.Fatalf("day out of range: %d", occs[i].DayOfYear)
			}
		}
	}
}

func TestEventIDsAreValid(t *testing.T) {
	cat := testCatalog(t, 300)
	tbl, err := Generate(context.Background(), cat, Config{NumTrials: 500}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range tbl.Occs {
		if _, ok := cat.Lookup(o.EventID); !ok {
			t.Fatalf("occurrence references unknown event %d", o.EventID)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	cat := testCatalog(t, 10)
	if _, err := Generate(context.Background(), cat, Config{NumTrials: 0}, 1); err == nil {
		t.Error("NumTrials=0 should error")
	}
	if _, err := Generate(context.Background(), catalog.NewCatalog(nil), Config{NumTrials: 10}, 1); err == nil {
		t.Error("empty catalogue should error")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	cat := testCatalog(t, 400)
	tbl, err := Generate(context.Background(), cat, Config{NumTrials: 700}, 21)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := tbl.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTrials != tbl.NumTrials || got.Len() != tbl.Len() {
		t.Fatal("shape mismatch after round trip")
	}
	for i := range tbl.Occs {
		if got.Occs[i] != tbl.Occs[i] {
			t.Fatalf("occurrence %d mismatch", i)
		}
	}
	for i := range tbl.Offsets {
		if got.Offsets[i] != tbl.Offsets[i] {
			t.Fatalf("offset %d mismatch", i)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE00000000"))); err == nil {
		t.Fatal("bad magic should error")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty read should error")
	}
	// Truncated occurrences.
	cat := testCatalog(t, 50)
	tbl, _ := Generate(context.Background(), cat, Config{NumTrials: 50}, 1)
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()-3])); err == nil {
		t.Fatal("truncated table should error")
	}
}

func TestSlice(t *testing.T) {
	cat := testCatalog(t, 200)
	tbl, err := Generate(context.Background(), cat, Config{NumTrials: 100}, 8)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := tbl.Slice(20, 50)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumTrials != 30 {
		t.Fatalf("sub trials = %d", sub.NumTrials)
	}
	for trial := 0; trial < 30; trial++ {
		want := tbl.OccurrencesOf(20 + trial)
		got := sub.OccurrencesOf(trial)
		if len(want) != len(got) {
			t.Fatalf("trial %d count mismatch", trial)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d occurrence %d mismatch", trial, i)
			}
		}
	}
	if _, err := tbl.Slice(-1, 10); err == nil {
		t.Error("negative lo should error")
	}
	if _, err := tbl.Slice(0, 101); err == nil {
		t.Error("hi beyond trials should error")
	}
	if _, err := tbl.Slice(50, 20); err == nil {
		t.Error("inverted range should error")
	}
}

func TestSizeBytes(t *testing.T) {
	cat := testCatalog(t, 100)
	tbl, err := Generate(context.Background(), cat, Config{NumTrials: 100}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.SizeBytes() <= int64(tbl.Len()*EntryBytes) {
		t.Fatal("SizeBytes should include offsets overhead")
	}
}

func TestSizeModelPaperScale(t *testing.T) {
	m := PaperScale()
	// The paper's headline: "over 5×10^16 entries".
	if got := m.DenseYELLTEntries(); got != 5e16 {
		t.Fatalf("DenseYELLTEntries = %g, want 5e16", got)
	}
	r1, r2 := m.Ratios()
	if r1 != 1000 || r2 != 1000 {
		t.Fatalf("ratios = (%v, %v), want (1000, 1000) as quoted", r1, r2)
	}
	if m.YELLTEntries()/m.YELTEntries() != 1000 {
		t.Fatal("occurrence YELLT/YELT ratio should equal locations")
	}
	if m.YELTEntries()/m.YLTEntries() != 1000 {
		t.Fatal("occurrence YELT/YLT ratio should equal λ")
	}
}

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{512, "512.00 B"},
		{2048, "2.00 KiB"},
		{5 * 1 << 30, "5.00 GiB"},
	}
	for _, c := range cases {
		if got := HumanBytes(c.in); got != c.want {
			t.Errorf("HumanBytes(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestBytesHelper(t *testing.T) {
	if Bytes(100, 6) != 600 {
		t.Fatal("Bytes arithmetic")
	}
}
