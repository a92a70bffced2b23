package yelt

import (
	"bytes"
	"context"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/catalog"
)

// assembleViaSource reconstructs a full table by reading src in
// consecutive batches through one reused buffer — the access pattern of
// a streaming engine worker. Batch sizes cycle through batches, so
// several sizes give ragged ranges.
func assembleViaSource(t *testing.T, src Source, batches ...int) *Table {
	t.Helper()
	n := src.TrialCount()
	out := &Table{NumTrials: n, Offsets: []int64{0}}
	buf := &Table{}
	for lo, i := 0, 0; lo < n; lo, i = lo+batches[i%len(batches)], i+1 {
		hi := min(lo+batches[i%len(batches)], n)
		b, err := src.ReadTrials(context.Background(), lo, hi, buf)
		if err != nil {
			t.Fatalf("ReadTrials[%d,%d): %v", lo, hi, err)
		}
		if b.NumTrials != hi-lo {
			t.Fatalf("batch [%d,%d): NumTrials = %d", lo, hi, b.NumTrials)
		}
		base := out.Offsets[len(out.Offsets)-1]
		for _, off := range b.Offsets[1:] {
			out.Offsets = append(out.Offsets, base+off)
		}
		out.Occs = append(out.Occs, b.Occs...)
	}
	return out
}

func tablesEqual(t *testing.T, name string, want, got *Table) {
	t.Helper()
	var wb, gb bytes.Buffer
	if _, err := want.WriteTo(&wb); err != nil {
		t.Fatal(err)
	}
	if _, err := got.WriteTo(&gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatalf("%s: tables are not byte-identical", name)
	}
}

// The streaming Generator must re-derive exactly the trials Generate
// materializes — for every batch partition, including sizes that do
// not divide the trial count.
// This is the foundation of the stage-2 streaming equivalence.
func TestGeneratorMatchesGenerate(t *testing.T) {
	cat := testCatalog(t, 300)
	cfg := Config{NumTrials: 500}
	want, err := Generate(context.Background(), cat, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(cat, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if g.TrialCount() != 500 {
		t.Fatalf("TrialCount = %d", g.TrialCount())
	}
	for _, batch := range []int{1, 3, 97, 500, 1000} {
		got := assembleViaSource(t, g, batch)
		tablesEqual(t, "generator batch", want, got)
	}
}

// TestGeneratorDigests pins the generator's output bit for bit: FNV-1a
// digests of the encoded Generate output. The constants were taken from
// the generator that still stored each occurrence's day: its tables,
// days dropped, encoded in the event-id layout — so dropping the day
// moved no event and no order. The three catalogues give short years
// (λ = 10), long years (λ = 200) and a 3-event catalogue at λ = 40 where
// equal (day, event) keys occur. Generator.ReadTrials over ragged ranges
// through one reused buffer must equal Generate. The day order itself
// is TestTrialsSortedByDay's.
func TestGeneratorDigests(t *testing.T) {
	const trials = 3000
	for _, tc := range []struct {
		name   string
		events int
		rate   float64
		want   uint64
	}{
		{"rate=10", 800, 10, 0xb090d92925ce6647},
		{"rate=200", 800, 200, 0x0150fff3b4caa6fc},
		{"events=3", 3, 40, 0x15dfbfaa16f39b2a},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := catalog.DefaultConfig()
			cfg.NumEvents = tc.events
			cfg.MeanEventsPerYear = tc.rate
			cat, err := catalog.Generate(cfg, 1234)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Generate(context.Background(), cat, Config{NumTrials: trials}, 41)
			if err != nil {
				t.Fatal(err)
			}
			var enc bytes.Buffer
			if _, err := want.WriteTo(&enc); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(enc.Bytes())
			if got := h.Sum64(); got != tc.want {
				t.Errorf("digest %#x, want %#x", got, tc.want)
			}

			g, err := NewGenerator(cat, Config{NumTrials: trials}, 41)
			if err != nil {
				t.Fatal(err)
			}
			tablesEqual(t, "ragged ReadTrials", want, assembleViaSource(t, g, 1, 977, 3, 64, 1500, 29))
		})
	}
}

// A streaming worker reads batch after batch through one buffer: once
// it is warm, regenerating a batch must allocate nothing — no stream
// per trial, no sort scaffolding per year, no growth.
func TestGeneratorReadTrialsAllocs(t *testing.T) {
	ctx := context.Background()
	g, err := NewGenerator(testCatalog(t, 500), Config{NumTrials: 4096}, 7)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := g.ReadTrials(ctx, 0, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := g.ReadTrials(ctx, 1024, 2048, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadTrials of 1024 trials into a warm buffer: %v allocations, want 0", allocs)
	}
}

// A generator's Streamed counter must equal the occurrence count of
// the equivalent table after one full pass — the accounting invariant
// the streaming stage reports rely on.
func TestGeneratorStreamedCount(t *testing.T) {
	cat := testCatalog(t, 200)
	cfg := Config{NumTrials: 300}
	want, err := Generate(context.Background(), cat, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(cat, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Streamed() != 0 {
		t.Fatalf("fresh generator streamed %d", g.Streamed())
	}
	assembleViaSource(t, g, 64)
	if g.Streamed() != int64(want.Len()) {
		t.Fatalf("streamed %d occurrences, table has %d", g.Streamed(), want.Len())
	}
}

// A materialized table is itself a Source: batches must be views of
// the same trials, and the full range must avoid copying entirely.
func TestTableAsSource(t *testing.T) {
	cat := testCatalog(t, 200)
	tbl, err := Generate(context.Background(), cat, Config{NumTrials: 250}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 7, 250, 4096} {
		got := assembleViaSource(t, tbl, batch)
		tablesEqual(t, "table batch", tbl, got)
	}
	full, err := tbl.ReadTrials(context.Background(), 0, tbl.NumTrials, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full != tbl {
		t.Fatal("full-range ReadTrials should return the table itself")
	}
}

func TestReadTrialsBounds(t *testing.T) {
	cat := testCatalog(t, 100)
	cfg := Config{NumTrials: 50}
	tbl, err := Generate(context.Background(), cat, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(cat, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []Source{tbl, g} {
		if _, err := src.ReadTrials(context.Background(), -1, 10, nil); err == nil {
			t.Error("negative lo should error")
		}
		if _, err := src.ReadTrials(context.Background(), 0, 51, nil); err == nil {
			t.Error("hi beyond trials should error")
		}
		if _, err := src.ReadTrials(context.Background(), 30, 20, nil); err == nil {
			t.Error("inverted range should error")
		}
		b, err := src.ReadTrials(context.Background(), 20, 20, nil)
		if err != nil {
			t.Errorf("empty range should succeed: %v", err)
		} else if b.NumTrials != 0 {
			t.Errorf("empty range NumTrials = %d", b.NumTrials)
		}
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	cat := testCatalog(t, 10)
	if _, err := NewGenerator(cat, Config{NumTrials: 0}, 1); err == nil {
		t.Error("NumTrials=0 should error")
	}
}

// Stage-2 generation must honor pipeline cancellation: both the
// materializing Generate and a streaming batch read stop early when
// the context is done instead of simulating to completion.
func TestGenerateHonorsCancellation(t *testing.T) {
	cat := testCatalog(t, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Generate(ctx, cat, Config{NumTrials: 100_000}, 1); err == nil {
		t.Fatal("cancelled Generate should error")
	}
	g, err := NewGenerator(cat, Config{NumTrials: 100_000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ReadTrials(ctx, 0, 100_000, nil); err == nil {
		t.Fatal("cancelled ReadTrials should error")
	}
}

// Extend must grow a table into exactly the table generated at the
// longer length — through any chain of intermediate lengths and worker
// counts — without writing to the table it grew from, and must refuse
// to shrink.
func TestExtendMatchesGenerate(t *testing.T) {
	cat := testCatalog(t, 300)
	ctx := context.Background()
	var tbl, prev *Table
	for i, n := range []int{1, 64, 64, 333, 500} {
		g, err := NewGenerator(cat, Config{NumTrials: n, Workers: i + 1}, 11)
		if err != nil {
			t.Fatal(err)
		}
		var snapshot *Table
		if tbl != nil {
			snapshot = &Table{NumTrials: tbl.NumTrials, Offsets: slices.Clone(tbl.Offsets), Occs: slices.Clone(tbl.Occs)}
		}
		prev, tbl = tbl, nil
		if tbl, err = g.Extend(ctx, prev); err != nil {
			t.Fatal(err)
		}
		want, err := Generate(ctx, cat, Config{NumTrials: n}, 11)
		if err != nil {
			t.Fatal(err)
		}
		tablesEqual(t, "extended table", want, tbl)
		if prev != nil {
			tablesEqual(t, "table extended from", snapshot, prev)
			if &prev.Offsets[0] == &tbl.Offsets[0] {
				t.Fatal("Extend returned storage shared with the table it grew from")
			}
		}
	}
	g, err := NewGenerator(cat, Config{NumTrials: 499}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Extend(ctx, tbl); err == nil {
		t.Fatal("extending 500 trials to 499 should error")
	}
}
