// Package yelt implements the Year-Event-Loss Table infrastructure of
// stage 2: the pre-simulated catalogue of alternative contractual
// years. Per §II of the paper, "rather than using random values
// generated on-the-fly, a pre-simulated Year-Event-Loss Table (YELT)
// containing between several thousand and millions of alternative
// views of a single contractual year is used" so that actuaries see
// results through a consistent lens.
//
// A Table is a flat, trial-major sequence of event occurrences — which
// events happen in each trial year, in the order they happen — stored
// as one event-id column for scan-oriented access. Losses are not
// stored here; they are looked up per contract in ELTs during aggregate
// analysis (that separation is exactly why the YELT is ~1000× smaller
// than the YELLT).
package yelt

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/catalog"
)

// Table is a pre-simulated set of trial years in trial-major layout:
// the occurrences of trial t are the event ids
// Occs[Offsets[t]:Offsets[t+1]], in the order they happen in the year.
// The generator draws a day for each occurrence and orders the year by
// it, then drops it: stage 2 reads only the order (see DESIGN.md §
// Determinism).
type Table struct {
	NumTrials int
	Offsets   []int64  // len NumTrials+1
	Occs      []uint32 // event ids, trial-major, in occurrence order
}

// OccurrencesOf returns the event ids of one trial, in occurrence order.
func (t *Table) OccurrencesOf(trial int) []uint32 {
	return t.Occs[t.Offsets[trial]:t.Offsets[trial+1]]
}

// Len returns the total number of occurrences across all trials.
func (t *Table) Len() int { return len(t.Occs) }

// EntryBytes is the footprint of one occurrence, the same in memory and
// encoded: its u32 event id.
const EntryBytes = 4

// SizeBytes returns the resident size of the table: the slices it holds.
func (t *Table) SizeBytes() int64 {
	return ResidentBytes(len(t.Offsets)-1, int64(len(t.Occs)))
}

// ResidentBytes returns the in-memory size of a table holding numTrials
// trials and occs occurrences: 8 bytes an offset and EntryBytes an
// occurrence. Holders of a resident table budget with it before
// generating and report with it after.
func ResidentBytes(numTrials int, occs int64) int64 {
	return 8*int64(numTrials+1) + occs*EntryBytes
}

// Config controls YELT generation.
type Config struct {
	NumTrials int
	// Workers parallelizes generation across trial blocks; <= 0 means
	// GOMAXPROCS. Generation is deterministic regardless of Workers.
	Workers int
}

// errEmptyCatalog rejects generation against a catalogue with no
// events (shared by Generate and NewGenerator).
var errEmptyCatalog = errors.New("yelt: empty catalogue")

// Generate pre-simulates cfg.NumTrials alternative years against the
// catalogue: per trial the number of occurrences is Poisson with the
// catalogue's total rate and event identities follow the per-event
// rates (sampled by an O(1) alias table). Each trial draws from its
// own splittable stream, so the table is a pure function of
// (catalogue, seed, NumTrials) — the "consistent lens" requirement —
// and Generator (source.go) can re-derive any trial batch on demand
// without materializing the table. Generate is the materialized form
// of the same kernel; ctx cancels generation between trial blocks.
func Generate(ctx context.Context, cat *catalog.Catalog, cfg Config, seed uint64) (*Table, error) {
	g, err := NewGenerator(cat, cfg, seed)
	if err != nil {
		return nil, err
	}
	return g.Materialize(ctx)
}

// --- binary codec ---

// Binary layout: magic "YEL2", u32 numTrials, then numTrials u32
// occurrence counts, then the occurrence stream as u32 event ids. It is
// stream-oriented: no seeking. The first layout ("YELT") also stored
// each occurrence's day; its files are refused as ErrBadFormat.
var magic = [4]byte{'Y', 'E', 'L', '2'}

// ErrBadFormat reports a malformed serialized table.
var ErrBadFormat = errors.New("yelt: bad format")

// WriteTo serializes the table. It implements io.WriterTo. Memory use
// is one reused 64 KiB chunk, whatever the table's size.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	enc := encoder{t: t}
	chunk := make([]byte, 0, 1<<16)
	var written int64
	for {
		chunk = enc.fill(chunk[:0])
		if len(chunk) == 0 {
			return written, nil
		}
		n, err := w.Write(chunk)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
}

// encode returns the table's WriteTo encoding in one buffer: what a
// spill writes, unchanged, to every replica of a shard.
func (t *Table) encode() []byte {
	enc := encoder{t: t}
	return enc.fill(make([]byte, 0, encodedBytes(t.NumTrials, int64(len(t.Occs)))))
}

// encodedBytes returns the length of the WriteTo encoding of numTrials
// trials holding occs occurrences: the 8-byte header, a 4-byte count
// per trial, then the records.
func encodedBytes(numTrials int, occs int64) int64 {
	return 8 + 4*int64(numTrials) + occs*EntryBytes
}

// encoder is the one encoder of the WriteTo format. It produces a
// table's bytes front to back in pieces as large as its caller's
// buffer — a reused chunk for WriteTo, the whole table for encode.
type encoder struct {
	t      *Table
	header bool // magic and trial count written
	trial  int  // next trial whose count to write
	occ    int  // next occurrence to write
}

// fill appends the next encoded bytes to dst — after the 8-byte
// header, never beyond cap(dst) and never splitting a field — and
// returns dst unchanged once the table is done.
func (e *encoder) fill(dst []byte) []byte {
	le := binary.LittleEndian
	if !e.header {
		dst = le.AppendUint32(append(dst, magic[:]...), uint32(e.t.NumTrials))
		e.header = true
	}
	for ; e.trial < e.t.NumTrials && cap(dst)-len(dst) >= 4; e.trial++ {
		dst = le.AppendUint32(dst, uint32(e.t.Offsets[e.trial+1]-e.t.Offsets[e.trial]))
	}
	if e.trial < e.t.NumTrials {
		return dst
	}
	for ; e.occ < len(e.t.Occs) && cap(dst)-len(dst) >= EntryBytes; e.occ++ {
		dst = le.AppendUint32(dst, e.t.Occs[e.occ])
	}
	return dst
}

// Reader is the one decoder of the WriteTo format: it checks and bounds
// the header once, then hands out trials front to back — skipped as
// bytes or decoded into a caller's Table. Read and the spilled-shard
// scan (DiskSource) both read through it.
type Reader struct {
	br     *bufio.Reader
	counts []uint32 // occurrences per trial, as the header declares them
	occs   int64    // their sum
	next   int      // first trial not yet skipped or decoded
}

// preallocCap bounds what a declared size may reserve before the data
// behind it has been read: a forged header declaring 2^27 trials must
// not allocate gigabytes before the short read is noticed (the codec
// fuzzer's finding). Beyond it, slices grow with the bytes consumed.
const preallocCap = 1 << 16

// NewReader reads and validates the header of a serialized table —
// magic, trial count, per-trial occurrence counts — leaving r at the
// first occurrence of trial 0.
func NewReader(r io.Reader) (*Reader, error) { return newReader(r, "table") }

// newReader is NewReader with the name its errors give the stream
// ("shard 3" for a spilled shard).
func newReader(r io.Reader, what string) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("yelt: %s header: %w", what, err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("%w: %s magic %q", ErrBadFormat, what, hdr[:4])
	}
	numTrials := binary.LittleEndian.Uint32(hdr[4:])
	const maxTrials = 1 << 27
	if numTrials > maxTrials {
		return nil, fmt.Errorf("%w: %s trial count %d", ErrBadFormat, what, numTrials)
	}
	rd := &Reader{br: br, counts: make([]uint32, 0, min(numTrials, preallocCap))}
	var u4 [4]byte
	for trial := uint32(0); trial < numTrials; trial++ {
		if _, err := io.ReadFull(br, u4[:]); err != nil {
			return nil, fmt.Errorf("yelt: %s count %d: %w", what, trial, err)
		}
		c := binary.LittleEndian.Uint32(u4[:])
		rd.counts = append(rd.counts, c)
		rd.occs += int64(c)
	}
	const maxOccs = 1 << 31
	if rd.occs > maxOccs {
		return nil, fmt.Errorf("%w: %s occurrence count %d", ErrBadFormat, what, rd.occs)
	}
	return rd, nil
}

// NumTrials returns the trial count the header declares.
func (rd *Reader) NumTrials() int { return len(rd.counts) }

// take claims the next n trials and returns how many occurrences they
// hold.
func (rd *Reader) take(n int) (occs int64, err error) {
	if n < 0 || n > len(rd.counts)-rd.next {
		return 0, fmt.Errorf("%w: %d trials wanted at trial %d of %d", ErrBadFormat, n, rd.next, len(rd.counts))
	}
	for _, c := range rd.counts[rd.next : rd.next+n] {
		occs += int64(c)
	}
	rd.next += n
	return occs, nil
}

// Skip passes over the next n trials without decoding them: records
// are fixed-width and the header says how many each trial holds, so a
// trial range is a byte range.
func (rd *Reader) Skip(n int) error {
	occs, err := rd.take(n)
	if err != nil {
		return err
	}
	if _, err := rd.br.Discard(int(occs * EntryBytes)); err != nil {
		return fmt.Errorf("yelt: skipping to trial %d: %w", rd.next, err)
	}
	return nil
}

// Next decodes the next n trials and appends them to buf — their
// occurrences to buf.Occs, one offset each to buf.Offsets (which gets
// its leading 0 if empty), NumTrials following — so one buf can collect
// ranges of several streams. buf is left partly filled on error.
func (rd *Reader) Next(n int, buf *Table) error {
	first := rd.next
	occs, err := rd.take(n)
	if err != nil {
		return err
	}
	if len(buf.Offsets) == 0 {
		buf.Offsets = append(buf.Offsets, 0)
	}
	// The counts came off the stream, so n offsets are backed by bytes
	// already read; the occurrences they promise are not yet.
	buf.Offsets = slices.Grow(buf.Offsets, n)
	buf.Occs = slices.Grow(buf.Occs, int(min(occs, preallocCap)))
	start := len(buf.Occs)
	if err := rd.readOccs(int(occs), buf); err != nil {
		// Name the trial the first missing record belongs to.
		trial, missing := first, uint32(len(buf.Occs)-start)
		for _, c := range rd.counts[first:rd.next] {
			if missing < c {
				break
			}
			missing -= c
			trial++
		}
		return fmt.Errorf("yelt: reading occurrence (trial %d): %w", trial, err)
	}
	end := int64(start)
	for _, c := range rd.counts[first:rd.next] {
		end += int64(c)
		buf.Offsets = append(buf.Offsets, end)
	}
	buf.NumTrials = len(buf.Offsets) - 1
	return nil
}

// readOccs appends the next c records to buf.Occs, decoding them in
// place from blocks of up to the read buffer's size, across trial
// boundaries. A stream that ends early keeps the whole records it
// held and fails as io.ReadFull would on the first missing one: io.EOF
// if the stream ends between records, io.ErrUnexpectedEOF inside one.
func (rd *Reader) readOccs(c int, buf *Table) error {
	perBlock := rd.br.Size() / EntryBytes
	for c > 0 {
		block, err := rd.br.Peek(min(c, perBlock) * EntryBytes)
		m := len(block) / EntryBytes
		at := len(buf.Occs)
		buf.Occs = slices.Grow(buf.Occs, m) // backed by the records in hand
		dst := buf.Occs[at : at+m]
		for j := range dst {
			dst[j] = binary.LittleEndian.Uint32(block[EntryBytes*j:])
		}
		buf.Occs = buf.Occs[:at+m]
		if err != nil {
			if err == io.EOF && len(block)%EntryBytes != 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		_, _ = rd.br.Discard(len(block)) // cannot fail: Peek buffered the bytes
		c -= m
	}
	return nil
}

// Read deserializes a table written by WriteTo.
func Read(r io.Reader) (*Table, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	t := &Table{}
	if err := rd.Next(rd.NumTrials(), t); err != nil {
		return nil, err
	}
	return t, nil
}

// view fills buf with trials [lo, hi) as a table sharing t's
// occurrence storage, offsets rebased to the range start. Bounds must
// already be validated. It is the one rebasing kernel behind both
// Slice and the streaming ReadTrials, so view semantics cannot
// diverge between the two.
func (t *Table) view(lo, hi int, buf *Table) *Table {
	buf.NumTrials = hi - lo
	buf.Occs = t.Occs[t.Offsets[lo]:t.Offsets[hi]]
	buf.Offsets = buf.Offsets[:0]
	base := t.Offsets[lo]
	for i := lo; i <= hi; i++ {
		buf.Offsets = append(buf.Offsets, t.Offsets[i]-base)
	}
	return buf
}

// Slice returns a view of trials [lo, hi) as a standalone table
// sharing the underlying occurrence storage, with offsets rebased to
// the range start: the reference the reader and disk-source tests
// compare a decoded trial range against.
func (t *Table) Slice(lo, hi int) (*Table, error) {
	if lo < 0 || hi > t.NumTrials || lo > hi {
		return nil, fmt.Errorf("yelt: slice [%d,%d) outside [0,%d)", lo, hi, t.NumTrials)
	}
	return t.view(lo, hi, &Table{Offsets: make([]int64, 0, hi-lo+1)}), nil
}

// Prefix returns trials [0, n) as a view sharing both the occurrence
// and the offset storage: a prefix needs no rebasing, so unlike
// Slice(0, n) it copies nothing. Per-trial substreams make the first n
// trials of a longer table exactly the n-trial table, which is what
// lets one resident table answer every shorter request.
func (t *Table) Prefix(n int) (*Table, error) {
	if n < 0 || n > t.NumTrials {
		return nil, fmt.Errorf("yelt: prefix %d outside [0,%d]", n, t.NumTrials)
	}
	return &Table{NumTrials: n, Offsets: t.Offsets[:n+1], Occs: t.Occs[:t.Offsets[n]]}, nil
}
