package yelt

import (
	"context"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

// Slice edge cases beyond the happy path: empty ranges anywhere
// (including at both ends), the full range, and every out-of-bounds
// shape.
func TestSliceEdgeCases(t *testing.T) {
	cat := testCatalog(t, 150)
	tbl, err := Generate(context.Background(), cat, Config{NumTrials: 60}, 3)
	if err != nil {
		t.Fatal(err)
	}

	for _, at := range []int{0, 31, 60} {
		sub, err := tbl.Slice(at, at)
		if err != nil {
			t.Fatalf("empty slice at %d: %v", at, err)
		}
		if sub.NumTrials != 0 || sub.Len() != 0 || len(sub.Offsets) != 1 {
			t.Fatalf("empty slice at %d: trials=%d occs=%d offsets=%d", at, sub.NumTrials, sub.Len(), len(sub.Offsets))
		}
		if sub.SizeBytes() != TableBytes(0, 0) {
			t.Fatalf("empty slice size = %d", sub.SizeBytes())
		}
	}

	full, err := tbl.Slice(0, tbl.NumTrials)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "full slice", tbl, full)

	for _, r := range [][2]int{{-1, 10}, {0, 61}, {61, 61}, {-2, -1}, {40, 10}} {
		if _, err := tbl.Slice(r[0], r[1]); err == nil {
			t.Errorf("slice [%d,%d) should error", r[0], r[1])
		}
	}

	// Slices compose: a slice of a slice addresses the same trials.
	mid, err := tbl.Slice(10, 50)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := mid.Slice(5, 15)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := tbl.Slice(15, 25)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "slice composition", direct, inner)
}

// Property: for any stream.Partition of the trial axis, the partition
// has no empty ranges, covers [0, n) exactly, and the corresponding
// Slices reassemble the table bit-for-bit — the invariant that makes
// range-partitioned scans (mapreduce splits, parallel engines,
// streaming batches) lossless.
func TestSlicePartitionReassembly(t *testing.T) {
	cat := testCatalog(t, 150)
	tbl, err := Generate(context.Background(), cat, Config{NumTrials: 97}, 9)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(partsRaw uint8) bool {
		parts := int(partsRaw%130) + 1 // 1..130, beyond the trial count
		ranges := stream.Partition(tbl.NumTrials, parts)
		out := &Table{NumTrials: tbl.NumTrials, Offsets: []int64{0}}
		prevHi := 0
		for _, r := range ranges {
			if r.Len() <= 0 || r.Lo != prevHi {
				return false // empty range or gap
			}
			prevHi = r.Hi
			sub, err := tbl.Slice(r.Lo, r.Hi)
			if err != nil {
				return false
			}
			base := out.Offsets[len(out.Offsets)-1]
			for _, off := range sub.Offsets[1:] {
				out.Offsets = append(out.Offsets, base+off)
			}
			out.Occs = append(out.Occs, sub.Occs...)
		}
		if prevHi != tbl.NumTrials {
			return false // incomplete cover
		}
		if len(out.Offsets) != len(tbl.Offsets) || len(out.Occs) != len(tbl.Occs) {
			return false
		}
		for i := range tbl.Offsets {
			if out.Offsets[i] != tbl.Offsets[i] {
				return false
			}
		}
		for i := range tbl.Occs {
			if out.Occs[i] != tbl.Occs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Prefix(n) is Slice(0, n) without the offset copy: field for field the
// same table for every n, backed by the parent's own storage, equal to
// the table generated at that length (the per-trial substream property
// the resident quote table rests on), and rejecting n outside
// [0, NumTrials].
func TestPrefixMatchesSlice(t *testing.T) {
	cat := testCatalog(t, 150)
	tbl, err := Generate(context.Background(), cat, Config{NumTrials: 97}, 9)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= tbl.NumTrials; n++ {
		pre, err := tbl.Prefix(n)
		if err != nil {
			t.Fatalf("prefix %d: %v", n, err)
		}
		sl, err := tbl.Slice(0, n)
		if err != nil {
			t.Fatal(err)
		}
		if pre.NumTrials != sl.NumTrials || !slices.Equal(pre.Offsets, sl.Offsets) || !slices.Equal(pre.Occs, sl.Occs) {
			t.Fatalf("prefix %d differs from Slice(0, %d)", n, n)
		}
		if &pre.Offsets[0] != &tbl.Offsets[0] {
			t.Fatalf("prefix %d copied the offsets", n)
		}
		if len(pre.Occs) > 0 && &pre.Occs[0] != &tbl.Occs[0] {
			t.Fatalf("prefix %d copied the occurrences", n)
		}
	}
	for _, n := range []int{1, 40, 97} {
		short, err := Generate(context.Background(), cat, Config{NumTrials: n}, 9)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := tbl.Prefix(n)
		if err != nil {
			t.Fatal(err)
		}
		tablesEqual(t, "prefix vs generated at that length", short, pre)
	}
	for _, n := range []int{-1, 98, 1 << 40} {
		if _, err := tbl.Prefix(n); err == nil {
			t.Errorf("prefix %d should error", n)
		}
	}
}
