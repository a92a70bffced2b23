package yelt

import (
	"bytes"
	"testing"
)

// mustEncode serializes a table for the fuzz seed corpus.
func mustEncode(f *testing.F, t *Table) []byte {
	f.Helper()
	var buf bytes.Buffer
	if _, err := t.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRead drives the binary codec with arbitrary bytes: inputs Read
// accepts must round-trip WriteTo → Read → WriteTo byte-identically
// and satisfy the Table invariants; inputs it rejects must error
// cleanly (no panic, no huge speculative allocation). The shard scan's
// path through the same decoder — Skip to a trial, Next over a range —
// must agree with Read + Slice on what Read accepts and fail on what
// it rejects. The seed corpus is golden encodings — empty,
// single-trial, multi-trial with empty years — plus corruptions of
// each.
func FuzzRead(f *testing.F) {
	golden := []*Table{
		{NumTrials: 0, Offsets: []int64{0}},
		{NumTrials: 1, Offsets: []int64{0, 2}, Occs: []Occurrence{{EventID: 7, DayOfYear: 12}, {EventID: 9, DayOfYear: 300}}},
		{NumTrials: 3, Offsets: []int64{0, 1, 1, 3}, Occs: []Occurrence{
			{EventID: 1, DayOfYear: 0}, {EventID: 2, DayOfYear: 100}, {EventID: 4_000_000, DayOfYear: 364},
		}},
	}
	for _, t := range golden {
		enc := mustEncode(f, t)
		f.Add(enc)
		if len(enc) > 6 {
			f.Add(enc[:len(enc)-5]) // truncated occurrence stream
			f.Add(enc[:6])          // truncated counts header
			corrupt := bytes.Clone(enc)
			corrupt[0] = 'X' // bad magic
			f.Add(corrupt)
			huge := bytes.Clone(enc)
			// Forged trial count with no backing data: must error
			// without reserving the declared size.
			huge[4], huge[5], huge[6], huge[7] = 0xff, 0xff, 0xff, 0x07
			f.Add(huge)
		}
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		t1, err := Read(bytes.NewReader(data))
		if err != nil {
			// Rejected input: a clean error is the contract, for a skip
			// over every trial as much as for a decode of them.
			if rd, err := NewReader(bytes.NewReader(data)); err == nil && rd.Skip(rd.NumTrials()) == nil {
				t.Fatalf("Read refused the input (%v), Skip over all of it did not", err)
			}
			return
		}
		// The input picks its own range: its last two bytes.
		lo := int(data[len(data)-1]) % (t1.NumTrials + 1)
		hi := lo + int(data[len(data)-2])%(t1.NumTrials-lo+1)
		got, err := skipNext(data, lo, hi)
		if err != nil {
			t.Fatalf("Skip(%d) + Next(%d) over an input Read accepts: %v", lo, hi-lo, err)
		}
		want, err := t1.Slice(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		tablesEqual(t, "skip+next", want, got)
		if len(t1.Offsets) != t1.NumTrials+1 || t1.Offsets[0] != 0 {
			t.Fatalf("decoded table breaks offset invariant: trials=%d offsets=%d", t1.NumTrials, len(t1.Offsets))
		}
		if int64(len(t1.Occs)) != t1.Offsets[t1.NumTrials] {
			t.Fatalf("occurrence count %d != final offset %d", len(t1.Occs), t1.Offsets[t1.NumTrials])
		}
		for i := 0; i < t1.NumTrials; i++ {
			if t1.Offsets[i] > t1.Offsets[i+1] {
				t.Fatalf("offsets not monotone at trial %d", i)
			}
			_ = t1.OccurrencesOf(i) // must not panic
		}
		if _, err := t1.Slice(0, t1.NumTrials); err != nil {
			t.Fatalf("full slice of decoded table: %v", err)
		}

		var b1 bytes.Buffer
		if _, err := t1.WriteTo(&b1); err != nil {
			t.Fatalf("re-encoding accepted table: %v", err)
		}
		t2, err := Read(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("re-reading own encoding: %v", err)
		}
		var b2 bytes.Buffer
		if _, err := t2.WriteTo(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("WriteTo → Read → WriteTo is not byte-identical")
		}
	})
}
