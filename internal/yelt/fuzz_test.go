package yelt

import (
	"bytes"
	"encoding/binary"
	"runtime"
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

// FuzzManifest drives the spill-manifest parser with arbitrary replica
// bytes and store sizes. It must not panic, and what it allocates is
// bounded by the input's length: a forged shard count must be refused
// before any table is made. An accepted manifest is well formed: its
// shard counts sum to the header's trial count, every replica node is a
// node of the store, and encoding what was parsed reproduces the
// input's prefix (bytes past the replica table are ignored). The seed
// corpus is encodings of one- and seven-shard spills, unreplicated and
// replicated, plus corruptions of each.
func FuzzManifest(f *testing.F) {
	golden := []struct {
		counts   []int
		reps     [][]int
		replicas int
	}{
		{nil, nil, 1},
		{[]int{120}, [][]int{{0}}, 1},
		{[]int{43, 43, 43, 43, 43, 43, 43}, [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 1}, {1, 2}, {2, 3}}, 2},
	}
	for _, g := range golden {
		enc := encodeManifest(g.counts, g.reps, g.replicas)
		f.Add(enc, uint8(4))
		f.Add(append(bytes.Clone(enc), 0xAA, 0xBB), uint8(4)) // trailing bytes
		f.Add(enc[:len(enc)/2], uint8(4))                     // torn replica
		f.Add(enc, uint8(1))                                  // store smaller than the placement
		corrupt := bytes.Clone(enc)
		corrupt[0] = 'X' // bad magic
		f.Add(corrupt, uint8(4))
		huge := bytes.Clone(enc)
		binary.LittleEndian.PutUint32(huge[4:], 0xFFFFFFFF) // forged shard count
		f.Add(huge, uint8(4))
		sum := bytes.Clone(enc)
		binary.LittleEndian.PutUint32(sum[8:], 7) // trial count the shards do not sum to
		f.Add(sum, uint8(4))
		zero := bytes.Clone(enc)
		binary.LittleEndian.PutUint32(zero[12:], 0) // no replicas
		f.Add(zero, uint8(4))
	}
	f.Add([]byte{}, uint8(4))

	f.Fuzz(func(t *testing.T, b []byte, n uint8) {
		nodes := 1 + int(n%16)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		counts, reps, replicas, err := parseManifest(b, nodes)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(b)+1<<16); got > limit {
			t.Fatalf("parsing %d bytes allocated %d, more than %d", len(b), got, limit)
		}
		if err != nil {
			return
		}
		if len(reps) != len(counts) {
			t.Fatalf("%d shard counts, %d replica sets", len(counts), len(reps))
		}
		sum := 0
		for _, c := range counts {
			sum += c
		}
		if trials := int(binary.LittleEndian.Uint32(b[8:])); sum != trials {
			t.Fatalf("accepted shard counts sum to %d, header says %d", sum, trials)
		}
		for i, rs := range reps {
			if len(rs) != replicas {
				t.Fatalf("shard %d has %d replicas, manifest says %d", i, len(rs), replicas)
			}
			for _, node := range rs {
				if node < 0 || node >= nodes {
					t.Fatalf("shard %d replica on node %d of a %d-node store", i, node, nodes)
				}
			}
		}
		enc := encodeManifest(counts, reps, replicas)
		if !bytes.HasPrefix(b, enc) {
			t.Fatalf("re-encoding %x is not a prefix of the input %x", enc, b)
		}
	})
}
