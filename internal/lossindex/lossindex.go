// Package lossindex implements the portfolio-wide, event-major
// pre-joined loss index shared by every stage-2 aggregate engine.
//
// The paper's central data-management claim is that risk analytics must
// be restructured around scan-oriented, pre-joined layouts: "data needs
// to be scanned over rather than randomly accessed" (§II). The
// MapReduce companion (Yao, Varghese & Rau-Chaplin, arXiv:1311.5686)
// realizes this by combining the per-contract ELTs into one pre-joined
// structure before the trial loop. This package is that structure for
// our engines: built once per (ELT set, portfolio), it maps a catalogue
// event ID — via a dense event-id → row table — to a packed,
// contract-ordered slice of (contract index, ELT record) entries.
//
// The trial kernel then becomes "index the event's row, scan the
// contracts that actually have loss": no per-(occurrence × contract)
// binary search, no visits to zero-loss contracts. Because entries
// within a row preserve portfolio contract order, and because records
// with non-positive mean loss (which the engines always skipped before
// drawing) are excluded at build time, the secondary-uncertainty draw
// order — and therefore bit-determinism across engines — is unchanged
// relative to the lookup-based kernels.
package lossindex

import (
	"fmt"

	"repro/internal/elt"
	"repro/internal/layers"
)

// Entry is one contract's loss distribution for one event: the unit of
// the pre-join. Entries of a row are sorted by Contract ascending.
type Entry struct {
	// Contract indexes into the portfolio's contract slice.
	Contract int32
	// Rec is the contract's ELT record for the row's event.
	Rec elt.Record
}

// entryBytes is the in-memory footprint of one Entry (int32 padded to
// 8, then 4+4 pad + 4×8 of the record).
const entryBytes = 8 + 40

// Index is the pre-joined event-major loss index. A row holds at most
// one entry per contract, contracts strictly ascending: the kernels'
// draw order and their per-contract sums rest on it, and Build refuses
// an ELT that would break it. It is immutable after Build and safe for
// concurrent readers — every engine worker shares one instance.
type Index struct {
	// rowOf maps event ID → row, dense over [0, maxEvent]; -1 marks
	// events on which no contract has loss.
	rowOf []int32
	// offsets frames entries: row r spans entries[offsets[r]:offsets[r+1]].
	offsets []int32
	// entries is the packed pre-join, event-major, contract-ordered
	// within each event.
	entries []Entry
	// events[r] is the event ID of row r; rows are assigned in
	// ascending event order, so this is sorted.
	events []uint32

	numContracts int
}

// Build constructs the index for a portfolio over its ELT set. Each
// contract contributes the records of its referenced table with
// positive mean loss; contracts may share tables (single-contract
// views do). A table's event IDs must be strictly ascending, as
// elt.New leaves them. Build is a pure function of its inputs.
func Build(elts []*elt.Table, pf *layers.Portfolio) (*Index, error) {
	if pf == nil || len(pf.Contracts) == 0 {
		return nil, fmt.Errorf("lossindex: empty portfolio")
	}
	for _, c := range pf.Contracts {
		if c.ELTIndex < 0 || c.ELTIndex >= len(elts) {
			return nil, fmt.Errorf("lossindex: contract %d references ELT %d of %d", c.ID, c.ELTIndex, len(elts))
		}
		recs := elts[c.ELTIndex].Records
		for i := 1; i < len(recs); i++ {
			if recs[i].EventID <= recs[i-1].EventID {
				return nil, fmt.Errorf("lossindex: contract %d: ELT %d has event %d at record %d after event %d; event IDs must be strictly ascending",
					c.ID, c.ELTIndex, recs[i].EventID, i, recs[i-1].EventID)
			}
		}
	}

	// Pass 1: count contributions per event across the book.
	var maxEvent uint32
	for _, c := range pf.Contracts {
		t := elts[c.ELTIndex]
		if n := t.Len(); n > 0 {
			if id := t.Records[n-1].EventID; id > maxEvent {
				maxEvent = id
			}
		}
	}
	counts := make([]int32, maxEvent+1)
	var total int
	for _, c := range pf.Contracts {
		for _, r := range elts[c.ELTIndex].Records {
			if r.MeanLoss <= 0 {
				continue
			}
			counts[r.EventID]++
			total++
		}
	}

	// Assign rows to loss-bearing events in ascending event order and
	// prefix-sum the counts into offsets.
	ix := &Index{
		rowOf:        make([]int32, maxEvent+1),
		numContracts: len(pf.Contracts),
	}
	numRows := 0
	for _, n := range counts {
		if n > 0 {
			numRows++
		}
	}
	ix.offsets = make([]int32, numRows+1)
	ix.events = make([]uint32, numRows)
	row := int32(0)
	var off int32
	for ev, n := range counts {
		if n == 0 {
			ix.rowOf[ev] = -1
			continue
		}
		ix.rowOf[ev] = row
		ix.events[row] = uint32(ev)
		ix.offsets[row] = off
		off += n
		row++
	}
	ix.offsets[numRows] = off

	// Pass 2: scatter entries. Iterating contracts in portfolio order
	// fills each row in ascending contract order — the draw order the
	// engines' kernels depend on.
	ix.entries = make([]Entry, total)
	next := make([]int32, numRows)
	copy(next, ix.offsets[:numRows])
	for ci, c := range pf.Contracts {
		for _, r := range elts[c.ELTIndex].Records {
			if r.MeanLoss <= 0 {
				continue
			}
			rw := ix.rowOf[r.EventID]
			ix.entries[next[rw]] = Entry{Contract: int32(ci), Rec: r}
			next[rw]++
		}
	}
	return ix, nil
}

// Row returns the row of an event ID, or -1 when no contract has loss
// for it (including IDs beyond the indexed range).
func (ix *Index) Row(eventID uint32) int32 {
	if int(eventID) >= len(ix.rowOf) {
		return -1
	}
	return ix.rowOf[eventID]
}

// Entries returns row r's packed entries, contract-ascending.
func (ix *Index) Entries(r int32) []Entry {
	return ix.entries[ix.offsets[r]:ix.offsets[r+1]]
}

// EntriesFor returns the entries for an event ID, nil when the event
// carries no loss anywhere in the book. This is the trial kernels' one
// probe per occurrence.
func (ix *Index) EntriesFor(eventID uint32) []Entry {
	r := ix.Row(eventID)
	if r < 0 {
		return nil
	}
	return ix.Entries(r)
}

// EventAt returns the event ID of row r. Rows are in ascending event
// order.
func (ix *Index) EventAt(r int32) uint32 { return ix.events[r] }

// NumRows returns the number of loss-bearing events in the index.
func (ix *Index) NumRows() int { return len(ix.events) }

// NumEntries returns the total number of (event, contract) pre-joined
// entries.
func (ix *Index) NumEntries() int { return len(ix.entries) }

// NumContracts returns the contract count of the portfolio the index
// was built for.
func (ix *Index) NumContracts() int { return ix.numContracts }

// SizeBytes returns the in-memory footprint of the index — the
// data-volume line the CLIs report next to the YELT and YLT sizes.
func (ix *Index) SizeBytes() int64 {
	return int64(len(ix.rowOf))*4 +
		int64(len(ix.offsets))*4 +
		int64(len(ix.events))*4 +
		int64(len(ix.entries))*entryBytes
}
