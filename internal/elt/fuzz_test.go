package elt

import (
	"bytes"
	"math"
	"sort"
	"testing"
)

func mustEncode(f *testing.F, t *Table) []byte {
	f.Helper()
	var buf bytes.Buffer
	if _, err := t.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRead drives the ELT codec with arbitrary bytes. Read normalizes
// unsorted input (sort + duplicate coalescing), so the round-trip
// contract is canonical-form stability: once decoded, WriteTo → Read →
// WriteTo must be byte-identical, and decoded tables must be sorted.
// The seed corpus is golden encodings — empty, typical, duplicate
// events — plus corruptions of each.
func FuzzRead(f *testing.F) {
	golden := []*Table{
		New(1, nil),
		New(7, []Record{
			{EventID: 3, MeanLoss: 100, SigmaI: 10, SigmaC: 5, ExposedValue: 1000},
			{EventID: 9, MeanLoss: 250.5, SigmaI: 0, SigmaC: 12, ExposedValue: 2000},
		}),
		// Duplicate event IDs coalesce in New; encode the raw duplicate
		// form by hand instead so the fuzzer sees sorted-with-duplicates
		// input too.
		{ContractID: 2, Records: []Record{
			{EventID: 5, MeanLoss: 1, ExposedValue: 10},
			{EventID: 5, MeanLoss: 2, ExposedValue: 20},
		}},
		// Unsorted on the wire: Read must normalize it.
		{ContractID: 3, Records: []Record{
			{EventID: 9, MeanLoss: 4, ExposedValue: 40},
			{EventID: 1, MeanLoss: 3, ExposedValue: 30},
		}},
		// Non-finite moments, and finite duplicates whose coalesced
		// mean overflows: Read must refuse each.
		{ContractID: 4, Records: []Record{{EventID: 2, MeanLoss: 1, SigmaI: math.NaN(), ExposedValue: 10}}},
		{ContractID: 5, Records: []Record{{EventID: 2, MeanLoss: 1, ExposedValue: math.Inf(1)}}},
		{ContractID: 6, Records: []Record{
			{EventID: 8, MeanLoss: math.MaxFloat64, ExposedValue: math.MaxFloat64},
			{EventID: 1, MeanLoss: 1, ExposedValue: 2},
			{EventID: 8, MeanLoss: math.MaxFloat64, ExposedValue: math.MaxFloat64},
		}},
	}
	for _, t := range golden {
		enc := mustEncode(f, t)
		f.Add(enc)
		if len(enc) > 8 {
			f.Add(enc[:len(enc)-7]) // truncated record stream
			corrupt := bytes.Clone(enc)
			corrupt[0] = 'X' // bad magic
			f.Add(corrupt)
			huge := bytes.Clone(enc)
			// Forged record count with no backing data: must error
			// without reserving the declared size.
			huge[8], huge[9], huge[10], huge[11] = 0xff, 0xff, 0xff, 0x0f
			f.Add(huge)
		}
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		t1, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input: a clean error is the contract
		}
		if !sort.SliceIsSorted(t1.Records, func(i, j int) bool {
			return t1.Records[i].EventID < t1.Records[j].EventID
		}) {
			t.Fatal("decoded table is not sorted by event ID")
		}
		for _, r := range t1.Records {
			if !r.finite() {
				t.Fatalf("accepted event %d with a non-finite moment: %+v", r.EventID, r)
			}
		}

		var b1 bytes.Buffer
		if _, err := t1.WriteTo(&b1); err != nil {
			t.Fatalf("re-encoding accepted table: %v", err)
		}
		t2, err := Read(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("re-reading own encoding: %v", err)
		}
		if t2.ContractID != t1.ContractID || len(t2.Records) != len(t1.Records) {
			t.Fatalf("canonical round trip changed shape: %d/%d records", len(t1.Records), len(t2.Records))
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
