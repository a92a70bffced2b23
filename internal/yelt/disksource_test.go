package yelt

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/diskstore"
)

func testStore(t *testing.T, nodes int) *diskstore.Store {
	t.Helper()
	s, err := diskstore.Create(t.TempDir(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Spilling a materialized table and reading any batch back must
// reproduce the equivalent Slice exactly — including batches that
// straddle shard boundaries, single trials, and the full range.
func TestSpillRoundTrip(t *testing.T) {
	ctx := context.Background()
	cat := testCatalog(t, 500)
	tbl, err := Generate(ctx, cat, Config{NumTrials: 301}, 11)
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t, 3)
	ds, err := Spill(ctx, tbl, store, "yelt", 7, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ds.TrialCount() != 301 || ds.Shards() != 7 {
		t.Fatalf("trials=%d shards=%d", ds.TrialCount(), ds.Shards())
	}
	ranges := [][2]int{{0, 301}, {0, 1}, {300, 301}, {40, 45}, {0, 43}, {43, 86}, {41, 130}, {150, 150}, {299, 301}}
	buf := &Table{}
	for _, r := range ranges {
		want, err := tbl.Slice(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := ds.ReadTrials(ctx, r[0], r[1], buf)
		if err != nil {
			t.Fatalf("[%d,%d): %v", r[0], r[1], err)
		}
		tablesEqual(t, "disk batch", want, got)
	}
	if ds.Scanned() == 0 {
		t.Fatal("disk source reported no scanned occurrences")
	}
}

// A Generator spilled to disk must yield the same trials the generator
// itself yields — re-scan equals re-derive.
func TestSpillGeneratorSourceMatches(t *testing.T) {
	ctx := context.Background()
	cat := testCatalog(t, 500)
	gen, err := NewGenerator(cat, Config{NumTrials: 200}, 17)
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t, 2)
	ds, err := Spill(ctx, gen, store, "g", 5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gen.ReadTrials(ctx, 33, 177, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.ReadTrials(ctx, 33, 177, nil)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "generator vs disk", want, got)
}

// OpenDiskSource must recover the shard → trial-range map from the
// shard headers alone.
func TestOpenDiskSource(t *testing.T) {
	ctx := context.Background()
	cat := testCatalog(t, 500)
	tbl, err := Generate(ctx, cat, Config{NumTrials: 123}, 5)
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t, 2)
	if _, err := Spill(ctx, tbl, store, "ds", 4, 1, 1); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDiskSource(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	if ds.TrialCount() != 123 || ds.Shards() != 4 {
		t.Fatalf("reopened trials=%d shards=%d", ds.TrialCount(), ds.Shards())
	}
	want, _ := tbl.Slice(10, 100)
	got, err := ds.ReadTrials(ctx, 10, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "reopened", want, got)
	size, err := ds.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	// Each shard carries an 8-byte magic+count header; counts and
	// occurrences are written exactly once across the shards.
	want4 := int64(4*8) + int64(tbl.NumTrials)*4 + int64(len(tbl.Occs))*EntryBytes
	if size != want4 {
		t.Fatalf("on-disk size %d, want %d", size, want4)
	}
}

// Re-spilling a dataset must clear the previous spill: stale
// high-numbered shards from a larger earlier run must not survive to
// inflate SizeBytes or corrupt OpenDiskSource re-attachment.
func TestSpillClearsStaleDataset(t *testing.T) {
	ctx := context.Background()
	cat := testCatalog(t, 500)
	big, err := Generate(ctx, cat, Config{NumTrials: 300}, 5)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Generate(ctx, cat, Config{NumTrials: 90}, 6)
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t, 2)
	if _, err := Spill(ctx, big, store, "ds", 7, 1, 1); err != nil {
		t.Fatal(err)
	}
	ds, err := Spill(ctx, small, store, "ds", 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.TrialCount() != 90 || ds.Shards() != 2 {
		t.Fatalf("respilled trials=%d shards=%d", ds.TrialCount(), ds.Shards())
	}
	reopened, err := OpenDiskSource(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	if reopened.TrialCount() != 90 || reopened.Shards() != 2 {
		t.Fatalf("reopened trials=%d shards=%d — stale shards survived", reopened.TrialCount(), reopened.Shards())
	}
	want, _ := small.Slice(0, 90)
	got, err := reopened.ReadTrials(ctx, 0, 90, nil)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "respilled", want, got)
}

// SpillToDir must stand up the store and spill in one call.
func TestSpillToDir(t *testing.T) {
	ctx := context.Background()
	cat := testCatalog(t, 500)
	tbl, err := Generate(ctx, cat, Config{NumTrials: 120}, 5)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := SpillToDir(ctx, tbl, t.TempDir(), 0, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Nodes() != DefaultSpillNodes {
		t.Fatalf("nodes = %d, want default %d", ds.Nodes(), DefaultSpillNodes)
	}
	want, _ := tbl.Slice(5, 115)
	got, err := ds.ReadTrials(ctx, 5, 115, nil)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "spill-to-dir", want, got)
}

func TestOpenDiskSourceMissing(t *testing.T) {
	store := testStore(t, 2)
	if _, err := OpenDiskSource(store, "nope"); err == nil {
		t.Fatal("missing dataset should error")
	}
}

// A spill interrupted before its manifest commits — or whose shard set
// disagrees with the manifest — must be refused by OpenDiskSource, not
// silently opened truncated.
func TestOpenDiskSourceRefusesIncompleteSpill(t *testing.T) {
	ctx := context.Background()
	cat := testCatalog(t, 500)
	tbl, err := Generate(ctx, cat, Config{NumTrials: 120}, 5)
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t, 2)
	if _, err := Spill(ctx, tbl, store, "ds", 4, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Crash before commit: shards present, manifest never written.
	if err := store.Delete(manifestDataset("ds")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskSource(store, "ds"); err == nil {
		t.Fatal("spill without manifest should be refused")
	}
	// Manifest present but trailing shards missing (each remaining
	// shard individually valid) — the refusal must name the first
	// shard that isn't there.
	if err := writeTestManifest(store, "ds", []int{30, 30, 30, 30, 40, 40}); err != nil {
		t.Fatal(err)
	}
	wantOpenError(t, store, "ds", "missing shard 4")
	// Shard count right, per-shard trial counts wrong.
	if err := writeTestManifest(store, "ds", []int{50, 50, 10, 10}); err != nil {
		t.Fatal(err)
	}
	wantOpenError(t, store, "ds", "shard 0")
	// Restoring the true manifest opens cleanly again.
	if err := writeTestManifest(store, "ds", []int{30, 30, 30, 30}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskSource(store, "ds"); err != nil {
		t.Fatal(err)
	}
}

// writeTestManifest writes an unreplicated manifest with the given
// per-shard counts and primary placement.
func writeTestManifest(store *diskstore.Store, dataset string, counts []int) error {
	reps := make([][]int, len(counts))
	for i := range reps {
		reps[i] = []int{store.NodeOf(i)}
	}
	return writeManifest(store, dataset, counts, reps, 1)
}

// wantOpenError asserts OpenDiskSource refuses the dataset with an
// error mentioning substr (the culprit shard), without panicking.
func wantOpenError(t *testing.T, store *diskstore.Store, dataset, substr string) {
	t.Helper()
	ds, err := OpenDiskSource(store, dataset)
	if err == nil {
		t.Fatalf("open succeeded (%d trials), want error naming %q", ds.TrialCount(), substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not name %q", err, substr)
	}
}

// A manifest's shard count comes straight off the disk: one that
// declares more shards than its partition could hold is refused before
// either table is allocated (0x3FFFFFFF shards used to cost 4 GiB, then
// EOF).
func TestOpenDiskSourceRefusesOversizedManifest(t *testing.T) {
	for _, tc := range []struct {
		name            string
		parts, replicas uint32
	}{
		{"4 GiB shard table", 0x3FFFFFFF, 1},
		{"16 GiB shard table, 32 GiB replica table", 0xFFFFFFFF, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := testStore(t, 2)
			err := store.WritePartitionAt(manifestDataset("ds"), 0, store.NodeOf(0), func(w io.Writer) error {
				hdr := append([]byte(nil), manifestMagic[:]...)
				hdr = binary.LittleEndian.AppendUint32(hdr, tc.parts)
				hdr = binary.LittleEndian.AppendUint32(hdr, 120)
				hdr = binary.LittleEndian.AppendUint32(hdr, tc.replicas)
				_, err := w.Write(hdr)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = OpenDiskSource(store, "ds")
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("open: %v, want ErrBadFormat", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Fatalf("refusing the manifest allocated %d bytes", got)
			}
		})
	}
}

// Re-attach failure modes: a shard file lost, truncated, or swapped
// between spill and aggregate must surface as an error naming the
// shard — never a panic or a silent short read.
func TestOpenDiskSourceReattachFailureModes(t *testing.T) {
	ctx := context.Background()
	cat := testCatalog(t, 500)
	tbl, err := Generate(ctx, cat, Config{NumTrials: 120}, 5)
	if err != nil {
		t.Fatal(err)
	}
	spill := func(t *testing.T) *diskstore.Store {
		t.Helper()
		store := testStore(t, 3)
		if _, err := Spill(ctx, tbl, store, "ds", 4, 1, 1); err != nil {
			t.Fatal(err)
		}
		return store
	}
	t.Run("missing shard file", func(t *testing.T) {
		store := spill(t)
		if err := store.RemoveAt("ds", 1, store.ReplicaNodesFor(1, 1)[0]); err != nil {
			t.Fatal(err)
		}
		wantOpenError(t, store, "ds", "missing shard 1")
	})
	t.Run("truncated header", func(t *testing.T) {
		store := spill(t)
		err := store.WritePartitionAt("ds", 2, store.NodeOf(2), func(w io.Writer) error {
			_, err := w.Write([]byte{'Y', 'E'})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		wantOpenError(t, store, "ds", "shard 2 header")
	})
	t.Run("bad shard magic", func(t *testing.T) {
		store := spill(t)
		err := store.WritePartitionAt("ds", 2, store.NodeOf(2), func(w io.Writer) error {
			_, err := w.Write(make([]byte, 16))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		wantOpenError(t, store, "ds", "shard 2 magic")
	})
	t.Run("retired manifest magic", func(t *testing.T) {
		store := spill(t)
		err := store.WritePartitionAt(manifestDataset("ds"), 0, store.NodeOf(0), func(w io.Writer) error {
			_, err := w.Write(append([]byte("YSP2"), make([]byte, 24)...))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		wantOpenError(t, store, "ds", `yelt: bad format: spill manifest magic "YSP2"`)
	})
	t.Run("manifest trial-range mismatch", func(t *testing.T) {
		store := spill(t)
		// Swap in an individually valid shard holding the wrong trial
		// range — only the per-shard manifest counts can catch it.
		short, err := tbl.Slice(0, 7)
		if err != nil {
			t.Fatal(err)
		}
		err = store.WritePartitionAt("ds", 3, store.NodeOf(3), func(w io.Writer) error {
			_, err := short.WriteTo(w)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		wantOpenError(t, store, "ds", "shard 3 holds 7 trials")
	})
	t.Run("stray extra shard", func(t *testing.T) {
		store := spill(t)
		err := store.WritePartitionAt("ds", 9, store.NodeOf(9), func(w io.Writer) error {
			_, err := tbl.WriteTo(w)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		wantOpenError(t, store, "ds", "stray shard 9")
	})
}

// encodeDayLayout writes tbl in the first shard layout, "YELT", whose
// 6-B records carried each occurrence's day after its event id.
func encodeDayLayout(tbl *Table) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32([]byte("YELT"), uint32(tbl.NumTrials))
	for i := 0; i < tbl.NumTrials; i++ {
		b = le.AppendUint32(b, uint32(tbl.Offsets[i+1]-tbl.Offsets[i]))
	}
	for j, event := range tbl.Occs {
		b = le.AppendUint16(le.AppendUint32(b, event), uint16(j%365))
	}
	return b
}

// A file in the layout that stored days — a shard under "YELT", a
// manifest under "YSP3" — is refused as ErrBadFormat, never decoded as
// event ids: its 6-B records read 4 B at a time would be wrong ids.
func TestDayLayoutRefused(t *testing.T) {
	ctx := context.Background()
	tbl, err := Generate(ctx, testCatalog(t, 500), Config{NumTrials: 120}, 5)
	if err != nil {
		t.Fatal(err)
	}
	old := encodeDayLayout(tbl)
	if _, err := Read(bytes.NewReader(old)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("Read of a YELT table: %v, want ErrBadFormat", err)
	}
	spill := func(t *testing.T) *diskstore.Store {
		t.Helper()
		store := testStore(t, 3)
		if _, err := Spill(ctx, tbl, store, "ds", 4, 1, 1); err != nil {
			t.Fatal(err)
		}
		return store
	}
	overwrite := func(t *testing.T, store *diskstore.Store, dataset string, part int, b []byte) {
		t.Helper()
		err := store.WritePartitionAt(dataset, part, store.NodeOf(part), func(w io.Writer) error {
			_, err := w.Write(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Run("shard", func(t *testing.T) {
		store := spill(t)
		shard, err := tbl.Slice(30, 60) // shard 1 of 4 holds trials [30, 60)
		if err != nil {
			t.Fatal(err)
		}
		overwrite(t, store, "ds", 1, encodeDayLayout(shard))
		if _, err := OpenDiskSource(store, "ds"); !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), `shard 1 magic "YELT"`) {
			t.Fatalf("open over a YELT shard: %v, want ErrBadFormat naming its magic", err)
		}
	})
	t.Run("manifest", func(t *testing.T) {
		store := spill(t)
		var m []byte
		err := store.ReadPartitionAt(manifestDataset("ds"), 0, store.NodeOf(0), func(r io.Reader) (err error) {
			m, err = io.ReadAll(r)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		copy(m, "YSP3")
		overwrite(t, store, manifestDataset("ds"), 0, m)
		if _, err := OpenDiskSource(store, "ds"); !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), `spill manifest magic "YSP3"`) {
			t.Fatalf("open under a YSP3 manifest: %v, want ErrBadFormat naming its magic", err)
		}
	})
}

func TestSpillValidation(t *testing.T) {
	ctx := context.Background()
	cat := testCatalog(t, 500)
	tbl, err := Generate(ctx, cat, Config{NumTrials: 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t, 1)
	if _, err := Spill(ctx, tbl, store, "x", 0, 1, 1); err == nil {
		t.Fatal("zero parts should error")
	}
	if _, err := Spill(ctx, &Table{}, store, "x", 1, 1, 1); err == nil {
		t.Fatal("empty source should error")
	}
}

func TestDiskSourceBounds(t *testing.T) {
	ctx := context.Background()
	cat := testCatalog(t, 500)
	tbl, err := Generate(ctx, cat, Config{NumTrials: 50}, 5)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Spill(ctx, tbl, testStore(t, 1), "b", 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{-1, 10}, {0, 51}, {20, 10}} {
		if _, err := ds.ReadTrials(ctx, r[0], r[1], nil); err == nil {
			t.Fatalf("range [%d,%d) should error", r[0], r[1])
		}
	}
}

func TestDiskSourceCancellation(t *testing.T) {
	cat := testCatalog(t, 500)
	tbl, err := Generate(context.Background(), cat, Config{NumTrials: 50}, 5)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Spill(context.Background(), tbl, testStore(t, 1), "c", 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ds.ReadTrials(ctx, 0, 50, nil); err == nil {
		t.Fatal("cancelled read should error")
	}
}

// A truncated shard must surface as an error, not a short batch.
func TestDiskSourceCorruptShard(t *testing.T) {
	ctx := context.Background()
	cat := testCatalog(t, 500)
	tbl, err := Generate(ctx, cat, Config{NumTrials: 80}, 5)
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t, 1)
	ds, err := Spill(ctx, tbl, store, "t", 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.CorruptAt("t", 1, ds.ShardNodes(1)[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.ReadTrials(ctx, 0, 80, nil); err == nil {
		t.Fatal("truncated shard should error")
	}
}

// The spilled dataset must round-trip through the plain codec too:
// each shard is a self-contained WriteTo-format table.
func TestShardIsPlainCodec(t *testing.T) {
	ctx := context.Background()
	cat := testCatalog(t, 500)
	tbl, err := Generate(ctx, cat, Config{NumTrials: 60}, 5)
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t, 2)
	if _, err := Spill(ctx, tbl, store, "p", 3, 1, 1); err != nil {
		t.Fatal(err)
	}
	var shard *Table
	err = store.ReadPartitionAt("p", 1, store.NodeOf(1), func(r io.Reader) error {
		var err error
		shard, err = Read(r)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tbl.Slice(20, 40)
	tablesEqual(t, "shard codec", want, shard)
}
