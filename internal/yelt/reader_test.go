package yelt

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// skipNext decodes trials [lo, hi) of an encoded table the way a shard
// scan does: header, Skip to lo, Next over the range.
func skipNext(data []byte, lo, hi int) (*Table, error) {
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if err := rd.Skip(lo); err != nil {
		return nil, err
	}
	got := &Table{}
	if err := rd.Next(hi-lo, got); err != nil {
		return nil, err
	}
	return got, nil
}

// Skipping is byte arithmetic over the counts header; it must land on
// exactly the trial a full decode would have reached.
func TestReaderSkipMatchesRead(t *testing.T) {
	tbl, err := Generate(context.Background(), testCatalog(t, 300), Config{NumTrials: 400}, 21)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	all, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		lo := rnd.Intn(all.NumTrials + 1)
		hi := lo + rnd.Intn(all.NumTrials-lo+1)
		got, err := skipNext(buf.Bytes(), lo, hi)
		if err != nil {
			t.Fatalf("[%d,%d): %v", lo, hi, err)
		}
		want, err := all.Slice(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		tablesEqual(t, "skip+next", want, got)
	}

	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.Skip(399); err != nil {
		t.Fatal(err)
	}
	if err := rd.Skip(2); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("skipping past the last trial: %v, want ErrBadFormat", err)
	}
	if err := rd.Next(2, &Table{}); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("decoding past the last trial: %v, want ErrBadFormat", err)
	}
	// A refused request consumes nothing: the last trial is still there.
	last := &Table{}
	if err := rd.Next(1, last); err != nil {
		t.Fatal(err)
	}
	want, _ := all.Slice(399, 400)
	tablesEqual(t, "last trial", want, last)
}

// TestReaderNextLongTrial decodes a trial of 40 000 records, which
// spans the reader's 64 KiB buffer more than twice, and stream ends
// at every kind of place: inside a record, on a buffer or decode-block
// boundary, on the trial boundary, and inside later trials. Each must
// fail the way io.ReadFull per record did — io.EOF between records,
// io.ErrUnexpectedEOF inside one, naming the trial the first missing
// record belongs to — whether the bytes arrive all at once, one at a
// time, or with the EOF on the last data.
func TestReaderNextLongTrial(t *testing.T) {
	counts := []int{40_000, 3, 5}
	tbl := &Table{NumTrials: len(counts), Offsets: []int64{0}}
	for _, c := range counts {
		for j := 0; j < c; j++ {
			tbl.Occs = append(tbl.Occs, uint32(len(tbl.Occs)*2654435761+1))
		}
		tbl.Offsets = append(tbl.Offsets, int64(len(tbl.Occs)))
	}
	var enc bytes.Buffer
	if _, err := tbl.WriteTo(&enc); err != nil {
		t.Fatal(err)
	}
	data := enc.Bytes()
	const body = 8 + 4*3 // header and counts: the records start here
	rec := func(i int) int { return body + EntryBytes*i }
	for _, tc := range []struct {
		name  string
		cut   int
		trial int
		want  error
	}{
		{"mid-record", rec(20_000) + 3, 0, io.ErrUnexpectedEOF},
		{"first 64 KiB buffer", 1<<16 + 2, 0, io.ErrUnexpectedEOF}, // 2 B into a record: 1<<16 − 20 is a whole number of them
		{"second 64 KiB buffer", 2 << 16, 0, io.EOF},               // (2<<16 − 20) ÷ 4 records exactly
		{"first decode block", rec(65536 / EntryBytes), 0, io.EOF},
		{"last record of the long trial", rec(39_999) + 3, 0, io.ErrUnexpectedEOF},
		{"trial boundary", rec(40_000), 1, io.EOF},
		{"inside trial 1", rec(40_001) + 2, 1, io.ErrUnexpectedEOF},
		{"between records of trial 2", rec(40_005), 2, io.EOF},
		{"last byte", len(data) - 1, 2, io.ErrUnexpectedEOF},
	} {
		for _, rdr := range []struct {
			name string
			wrap func(io.Reader) io.Reader
		}{
			{"whole", func(r io.Reader) io.Reader { return r }},
			{"one byte", iotest.OneByteReader},
			{"EOF with data", iotest.DataErrReader},
		} {
			t.Run(tc.name+"/"+rdr.name, func(t *testing.T) {
				got, err := Read(rdr.wrap(bytes.NewReader(data[:tc.cut])))
				if err == nil {
					t.Fatalf("truncated at byte %d of %d: decoded %d trials", tc.cut, len(data), got.NumTrials)
				}
				if !errors.Is(err, tc.want) || tc.want == io.EOF && errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("err %v, want %v", err, tc.want)
				}
				if want := fmt.Sprintf("(trial %d)", tc.trial); !strings.Contains(err.Error(), want) {
					t.Fatalf("err %q does not name %s", err, want)
				}
			})
		}
	}
	got, err := Read(iotest.HalfReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "long trial", tbl, got)
}

// TestReaderShortHeader cuts a counts header of 20 000 trials, longer
// than the reader's 64 KiB buffer, at every kind of place: before the
// first count, between counts, inside one, across the first buffer and
// in the last count. Each must fail the way io.ReadFull per count did —
// io.EOF between counts, io.ErrUnexpectedEOF inside one, naming the
// first missing count — whether the bytes arrive all at once, one at a
// time, or with the EOF on the last data.
func TestReaderShortHeader(t *testing.T) {
	const trials = 20_000
	tbl := &Table{NumTrials: trials, Offsets: make([]int64, trials+1)}
	var enc bytes.Buffer
	if _, err := tbl.WriteTo(&enc); err != nil {
		t.Fatal(err)
	}
	data := enc.Bytes()
	cnt := func(i int) int { return 8 + 4*i }
	for _, tc := range []struct {
		name  string
		cut   int
		count int
		want  error
	}{
		{"no counts", cnt(0), 0, io.EOF},
		{"between counts", cnt(5), 5, io.EOF},
		{"inside a count", cnt(5) + 1, 5, io.ErrUnexpectedEOF},
		{"first 64 KiB buffer", 1<<16 + 2, (1<<16 - 8) / 4, io.ErrUnexpectedEOF}, // 2 B into a count: 1<<16 − 8 is a whole number of them
		{"second buffer, between counts", cnt(16_384 + 9), 16_384 + 9, io.EOF},
		{"last count", len(data) - 1, trials - 1, io.ErrUnexpectedEOF},
	} {
		for _, rdr := range []struct {
			name string
			wrap func(io.Reader) io.Reader
		}{
			{"whole", func(r io.Reader) io.Reader { return r }},
			{"one byte", iotest.OneByteReader},
			{"EOF with data", iotest.DataErrReader},
		} {
			t.Run(tc.name+"/"+rdr.name, func(t *testing.T) {
				_, err := NewReader(rdr.wrap(bytes.NewReader(data[:tc.cut])))
				if err == nil {
					t.Fatalf("header cut at byte %d of %d accepted", tc.cut, len(data))
				}
				if !errors.Is(err, tc.want) || tc.want == io.EOF && errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("err %v, want %v", err, tc.want)
				}
				if want := fmt.Sprintf("count %d:", tc.count); !strings.Contains(err.Error(), want) {
					t.Fatalf("err %q does not name %s", err, want)
				}
			})
		}
	}
	rd, err := NewReader(iotest.HalfReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumTrials() != trials || rd.occs != 0 {
		t.Fatalf("whole header read as %d trials, %d occurrences", rd.NumTrials(), rd.occs)
	}
}

// A header is input from outside the process (-mode aggregate -dir D):
// one that declares 2^27 trials over no data must be refused before
// anything is sized from it, whichever parser it arrives through.
func TestReaderForgedHeaderAllocatesLittle(t *testing.T) {
	forged := binary.LittleEndian.AppendUint32(append([]byte(nil), magic[:]...), 1<<27)

	ctx := context.Background()
	tbl, err := Generate(ctx, testCatalog(t, 200), Config{NumTrials: 40}, 9)
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t, 1)
	ds, err := Spill(ctx, tbl, store, "f", 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = store.WritePartitionAt("f", 1, store.NodeOf(1), func(w io.Writer) error {
		_, err := w.Write(forged)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		parse func() error
	}{
		{"Read", func() error {
			_, err := Read(bytes.NewReader(forged))
			return err
		}},
		{"DiskSource.ReadTrials", func() error {
			_, err := ds.ReadTrials(ctx, 0, 40, nil)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.parse()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("forged header accepted")
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Fatalf("refusing the header allocated %d bytes", got)
			}
		})
	}
}
