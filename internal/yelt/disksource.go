package yelt

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/diskstore"
	"repro/internal/stream"
)

// This file is the third point on the stage-2 memory/compute trade:
// generate the trial stream once, spill it into trial-range partitions
// of an internal/diskstore, and let every subsequent engine pass
// re-scan the shards instead of re-deriving the trials. It is the
// paper's "accumulate large distributed file space" strategy applied
// to the YELT — partitioned, written once, consumed by sequential
// scans — and the substrate the MapReduce aggregate engine maps over.

// Spill writes the trials of src into parts contiguous trial-range
// shards of dataset in store — one WriteTo-format shard per
// stream.Partition range, shard i holding range i — and returns the
// DiskSource reading them back. Each shard is written to replicas
// distinct storage nodes (clamped to the node count; <= 1 means no
// replication), placed by the store's chained declustering rule, and
// the manifest records every shard's replica set so a re-attaching
// process knows where the survivors are. Shards are written in
// parallel (bounded by workers; <= 0 means GOMAXPROCS), each
// materialized range-at-a-time, so peak memory during the spill is
// bounded by workers × shard, not by the trial count. Any prior spill
// under the same dataset name is deleted first: leftover high-numbered
// shards from a larger previous run would otherwise survive alongside
// the fresh ones and corrupt OpenDiskSource re-attachment. Every
// replica of every shard must land before the manifest (itself
// replicated) is written, so a crash mid-spill leaves a dataset
// OpenDiskSource refuses, never a partially replicated one that would
// silently lose its fault tolerance.
func Spill(ctx context.Context, src Source, store *diskstore.Store, dataset string, parts, replicas, workers int) (*DiskSource, error) {
	n := src.TrialCount()
	if n <= 0 {
		return nil, fmt.Errorf("yelt: spill of empty source")
	}
	if parts <= 0 {
		return nil, fmt.Errorf("yelt: spill parts %d", parts)
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > store.Nodes() {
		replicas = store.Nodes()
	}
	for _, stale := range []string{manifestDataset(dataset), dataset} {
		if err := store.Delete(stale); err != nil && !errors.Is(err, diskstore.ErrNotFound) {
			return nil, fmt.Errorf("yelt: clearing stale dataset %q: %w", stale, err)
		}
	}
	ranges := stream.Partition(n, parts)
	reps := make([][]int, len(ranges))
	for i := range reps {
		reps[i] = store.ReplicaNodesFor(i, replicas)
	}
	sizes := make([]int64, len(ranges))
	err := stream.ForEach(ctx, len(ranges), workers, func(ctx context.Context, i int) error {
		shard, err := src.ReadTrials(ctx, ranges[i].Lo, ranges[i].Hi, nil)
		if err != nil {
			return fmt.Errorf("yelt: spill shard %d: %w", i, err)
		}
		// Encoded once, written to every replica: the replicas are
		// byte-identical by construction, as an HDFS write pipeline
		// makes them.
		data := shard.encode()
		sizes[i] = int64(len(data))
		for _, node := range reps[i] {
			err := store.WritePartitionAt(dataset, i, node, func(w io.Writer) error {
				_, err := w.Write(data)
				return err
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The manifest commits the spill: written only after every shard
	// landed, so a crash mid-spill leaves a dataset OpenDiskSource
	// refuses — individually valid trailing shards cannot masquerade as
	// a complete (but truncated) spill.
	if err := writeManifest(store, dataset, shardCounts(ranges), reps, replicas); err != nil {
		return nil, err
	}
	return &DiskSource{store: store, dataset: dataset, ranges: ranges, n: n,
		reps: reps, sizes: sizes}, nil
}

// The manifest is a sibling single-partition dataset recording what a
// complete spill contains: magic, shard count, total trial count,
// replication factor, the per-shard trial counts, and the per-shard
// replica node sets. Recording every shard's expected count — not just
// the total — lets OpenDiskSource name the exact shard whose header
// disagrees with the spill instead of reporting only that the totals
// drifted; recording the replica sets tells a re-attaching process
// where the survivors of a node loss are without scanning every node
// directory. The manifest partition is itself replicated (same
// placement rule). There is one layout: a spill directory is scratch
// between two processes of one build, so no older one is read. An
// older manifest ("YSP3", over shards that stored each occurrence's
// day) is refused as ErrBadFormat.
var manifestMagic = [4]byte{'Y', 'S', 'P', '4'}

func manifestDataset(dataset string) string { return dataset + ".manifest" }

func shardCounts(ranges []stream.Range) []int {
	counts := make([]int, len(ranges))
	for i, r := range ranges {
		counts[i] = r.Hi - r.Lo
	}
	return counts
}

// writeManifest writes the encoded manifest to each of its replica
// nodes.
func writeManifest(store *diskstore.Store, dataset string, counts []int, reps [][]int, replicas int) error {
	buf := encodeManifest(counts, reps, replicas)
	for _, node := range store.ReplicaNodesFor(0, replicas) {
		err := store.WritePartitionAt(manifestDataset(dataset), 0, node, func(w io.Writer) error {
			_, err := w.Write(buf)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// encodeManifest lays a manifest out, all little-endian u32 after the
// magic:
//
//	"YSP4" | parts | trials | replicas r | parts × count | parts × r × node
func encodeManifest(counts []int, reps [][]int, replicas int) []byte {
	trials := 0
	for _, c := range counts {
		trials += c
	}
	buf := make([]byte, 0, 16+4*len(counts)+4*replicas*len(counts))
	buf = append(buf, manifestMagic[:]...)
	for _, v := range []int{len(counts), trials, replicas} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, c := range counts {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	for _, nodes := range reps {
		for _, n := range nodes {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
		}
	}
	return buf
}

// readManifest reads the spill's commit record, failing over across
// its replicas (the same node loss that takes out data shards can take
// out the manifest's primary copy, and a torn copy is refused on its
// own bytes).
func readManifest(store *diskstore.Store, dataset string) (counts []int, reps [][]int, err error) {
	mds := manifestDataset(dataset)
	nodes, err := store.ReplicaNodes(mds, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %s part 0", diskstore.ErrNotFound, mds)
	}
	var errs []error
	for _, node := range nodes {
		var b []byte
		err = store.ReadPartitionAt(mds, 0, node, func(r io.Reader) (err error) {
			b, err = io.ReadAll(r)
			return err
		})
		if err == nil {
			counts, reps, _, err = parseManifest(b, store.Nodes())
		}
		if err == nil {
			return counts, reps, nil
		}
		errs = append(errs, fmt.Errorf("node %d: %w", node, err))
	}
	if len(errs) == 1 {
		return nil, nil, errs[0]
	}
	return nil, nil, fmt.Errorf("yelt: spill manifest unreadable on all replicas: %w", errors.Join(errs...))
}

// parseManifest decodes one replica's manifest bytes for a store of
// nodes storage nodes. Bytes past the replica table are ignored. parts
// comes straight off the disk, so no table is allocated before b is
// known to hold it: what parseManifest allocates is bounded by len(b).
func parseManifest(b []byte, nodes int) (counts []int, reps [][]int, replicas int, err error) {
	fail := func(format string, args ...any) ([]int, [][]int, int, error) {
		return nil, nil, 0, fmt.Errorf(format, args...)
	}
	if len(b) < 16 {
		return fail("%w: spill manifest holds %d bytes, its header needs 16", ErrBadFormat, len(b))
	}
	if [4]byte(b[:4]) != manifestMagic {
		return fail("%w: spill manifest magic %q", ErrBadFormat, b[:4])
	}
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(b[off:])) }
	parts, trials := u32(4), u32(8)
	replicas = u32(12)
	if replicas < 1 || replicas > nodes {
		return fail("%w: spill manifest replication factor %d (store has %d nodes)", ErrBadFormat, replicas, nodes)
	}
	if need := 16 + 4*int64(parts)*int64(1+replicas); need > int64(len(b)) {
		return fail("%w: spill manifest declares %d shards × %d replicas (%d bytes), its partition holds %d", ErrBadFormat, parts, replicas, need, len(b))
	}
	counts = make([]int, parts)
	sum := 0
	for i := range counts {
		counts[i] = u32(16 + 4*i)
		sum += counts[i]
	}
	if sum != trials {
		return fail("%w: spill manifest shard counts sum to %d, header says %d", ErrBadFormat, sum, trials)
	}
	flat := make([]int, parts*replicas)
	reps = make([][]int, parts)
	off := 16 + 4*parts
	for i := range reps {
		reps[i] = flat[i*replicas : (i+1)*replicas : (i+1)*replicas]
		for k := range reps[i] {
			n := u32(off)
			off += 4
			if n < 0 || n >= nodes {
				return fail("%w: spill manifest shard %d replica node %d (store has %d nodes)", ErrBadFormat, i, n, nodes)
			}
			reps[i][k] = n
		}
	}
	return counts, reps, replicas, nil
}

// DefaultSpillNodes is the simulated storage-node count spills default
// to — matching the distributed-file experiments (E6, E11).
const DefaultSpillNodes = 4

// SpillToDir is the one-call form of Spill shared by the pipeline,
// CLIs, and benchmarks: it creates a diskstore rooted at dir with
// nodes storage nodes (<= 0 means DefaultSpillNodes) and spills src
// into its "yelt" dataset, replicating each shard to replicas nodes
// (<= 1 means no replication).
func SpillToDir(ctx context.Context, src Source, dir string, nodes, parts, replicas, workers int) (*DiskSource, error) {
	if nodes <= 0 {
		nodes = DefaultSpillNodes
	}
	store, err := diskstore.Create(dir, nodes)
	if err != nil {
		return nil, err
	}
	return Spill(ctx, src, store, "yelt", parts, replicas, workers)
}

// DiskSource is a Source over the trial-range shards Spill wrote: any
// batch is re-read from disk by scanning the overlapping shards with a
// Reader (the store offers no random access — these workloads scan).
// It is safe for concurrent ReadTrials calls: every call opens its own
// partition readers.
type DiskSource struct {
	store   *diskstore.Store
	dataset string
	ranges  []stream.Range // ranges[i] = global trials held by shard i
	n       int
	reps    [][]int // reps[i] = storage nodes holding shard i, failover order
	sizes   []int64 // sizes[i] = encoded bytes of shard i, what a scan of it reads
	// scanned counts occurrences delivered through ReadTrials — the
	// disk-scan analogue of Generator.Streamed for stage accounting.
	scanned atomic.Int64
	// failovers counts replica reads abandoned for the next replica —
	// the price of staying correct through shard loss.
	failovers atomic.Int64
	flog      failoverLog
}

// failoverLog keeps a bounded record of replica failovers so operators
// (and tests) can see which replica was bad and why, without an
// unbounded allocation under sustained faults.
type failoverLog struct {
	mu      sync.Mutex
	entries []string
	dropped int
}

const failoverLogCap = 16

func (l *failoverLog) add(msg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) >= failoverLogCap {
		l.dropped++
		return
	}
	l.entries = append(l.entries, msg)
}

func (l *failoverLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]string(nil), l.entries...)
	if l.dropped > 0 {
		out = append(out, fmt.Sprintf("(%d more failovers not logged)", l.dropped))
	}
	return out
}

// OpenDiskSource attaches to a previously spilled dataset, recovering
// the shard → trial-range map and each shard's size from the shard
// headers (each WriteTo header carries its trial and occurrence counts;
// shards are contiguous in partition order by construction). The dataset's manifest — written only after
// a spill completes — must match the shards found, so a crashed spill
// (missing trailing shards, or no manifest at all) is refused instead
// of silently opening truncated.
// With replication, verification fails over: a shard whose primary
// replica is torn, truncated, or lost attaches from any healthy
// replica (the failover is counted and logged, naming the bad copy);
// only a shard with no healthy replica at all refuses the attach.
func OpenDiskSource(store *diskstore.Store, dataset string) (*DiskSource, error) {
	wantCounts, reps, err := readManifest(store, dataset)
	if err != nil {
		return nil, fmt.Errorf("yelt: open %q (incomplete or pre-manifest spill?): %w", dataset, err)
	}
	parts, err := store.Partitions(dataset)
	if err != nil && !errors.Is(err, diskstore.ErrNotFound) {
		return nil, err
	}
	// Diff the shard set against the manifest naming the first culprit:
	// a shard whose every replica was lost between spill and re-attach
	// is reported by number, not as a bare count mismatch.
	present := make(map[int]bool, len(parts))
	for _, p := range parts {
		if p >= len(wantCounts) {
			return nil, fmt.Errorf("%w: dataset %s has stray shard %d, manifest expects %d shards", ErrBadFormat, dataset, p, len(wantCounts))
		}
		present[p] = true
	}
	for i := range wantCounts {
		if !present[i] {
			return nil, fmt.Errorf("%w: dataset %s missing shard %d (manifest expects %d shards)", ErrBadFormat, dataset, i, len(wantCounts))
		}
	}
	ds := &DiskSource{store: store, dataset: dataset, reps: reps, sizes: make([]int64, len(wantCounts))}
	lo := 0
	for i, want := range wantCounts {
		err := ds.readShard(i, "attach", func(r io.Reader) (err error) {
			ds.sizes[i], err = attachShard(r, i, want)
			return err
		})
		if err != nil {
			return nil, err
		}
		ds.ranges = append(ds.ranges, stream.Range{Lo: lo, Hi: lo + want})
		lo += want
	}
	ds.n = lo
	return ds, nil
}

// TrialCount implements Source.
func (ds *DiskSource) TrialCount() int { return ds.n }

// Shards returns the number of trial-range partitions.
func (ds *DiskSource) Shards() int { return len(ds.ranges) }

// Nodes returns the storage-node count of the underlying store.
func (ds *DiskSource) Nodes() int { return ds.store.Nodes() }

// ShardRange returns the global trial range shard i holds — the
// boundaries shard-affine mappers align their splits to.
func (ds *DiskSource) ShardRange(i int) stream.Range { return ds.ranges[i] }

// ShardNodes returns every storage node holding a replica of shard i,
// primary first, in failover order — the manifest's record. A
// shard-affine mapper scans the shard locally on any of them. The
// returned slice is shared; callers must not modify it.
func (ds *DiskSource) ShardNodes(i int) []int { return ds.reps[i] }

// Failovers returns how many replica reads were abandoned for the next
// replica so far — zero on a healthy store.
func (ds *DiskSource) Failovers() int64 { return ds.failovers.Load() }

// FailoverLog returns a bounded log of the failovers so far, each
// naming the shard, the bad replica, and why it was abandoned.
func (ds *DiskSource) FailoverLog() []string { return ds.flog.snapshot() }

// Store exposes the underlying diskstore — the seam where fault
// injection (Store.SetReadFault) and replica-loss hooks attach.
func (ds *DiskSource) Store() *diskstore.Store { return ds.store }

// ShardSizeBytes returns the encoded size of shard i — the bytes a scan
// of it reads, whichever replica serves the scan, and so the
// data-motion cost of scanning it from another node. It is recorded
// when the source learns the shard's bytes: the encoding's length at
// spill, the verified replica's header at attach. On a healthy store
// it is every replica's file size; a torn replica does not shrink it.
func (ds *DiskSource) ShardSizeBytes(i int) int64 { return ds.sizes[i] }

// SizeBytes returns the logical size of the spilled dataset: every
// shard counted once, by ShardSizeBytes. The error is always nil: the
// result keeps it only for the benchmark harness (bench/replica.go),
// which reads it in that form.
func (ds *DiskSource) SizeBytes() (int64, error) {
	var total int64
	for _, b := range ds.sizes {
		total += b
	}
	return total, nil
}

// Scanned returns the total occurrences delivered through ReadTrials
// so far — how much shard data engine passes have re-read from disk.
func (ds *DiskSource) Scanned() int64 { return ds.scanned.Load() }

// readShard runs fn over the replicas of shard i in failover order
// until one succeeds, counting and logging every replica abandoned on
// the way; what names the read ("attach", "scan") in log and error.
func (ds *DiskSource) readShard(i int, what string, fn func(io.Reader) error) error {
	var errs []error
	for ri, node := range ds.reps[i] {
		err := ds.store.ReadPartitionAt(ds.dataset, i, node, fn)
		if err == nil {
			if ri > 0 {
				ds.failovers.Add(int64(ri))
				ds.flog.add(fmt.Sprintf("shard %d: %s failed over to replica node %d (%v)", i, what, node, errors.Join(errs...)))
			}
			return nil
		}
		errs = append(errs, fmt.Errorf("replica node %d: %w", node, err))
	}
	if len(errs) == 1 {
		return fmt.Errorf("yelt: %s of shard %d: %w", what, i, errs[0])
	}
	return fmt.Errorf("yelt: %s of shard %d: all replicas failed: %w", what, i, errors.Join(errs...))
}

// attachShard verifies the header of one replica of shard i against
// the trial count the manifest recorded and returns the shard's size
// as that header declares it: the bytes a full scan of the shard reads.
// It reads the header only, so a replica torn in its body still
// reports the size of the shard it is a copy of.
func attachShard(r io.Reader, i, want int) (int64, error) {
	rd, err := openShard(r, i, want)
	if err != nil {
		return 0, err
	}
	return encodedBytes(rd.NumTrials(), rd.occs), nil
}

// openShard starts decoding one replica of shard i, refusing a file
// whose header disagrees with the trial count the manifest recorded.
func openShard(r io.Reader, i, want int) (*Reader, error) {
	rd, err := newReader(r, fmt.Sprintf("shard %d", i))
	if err != nil {
		return nil, err
	}
	if rd.NumTrials() != want {
		return nil, fmt.Errorf("%w: shard %d holds %d trials, manifest expects %d", ErrBadFormat, i, rd.NumTrials(), want)
	}
	return rd, nil
}

// ReadTrials implements Source by scanning the shards overlapping
// [lo, hi): each scan skips, as bytes, to the first trial it needs and
// decodes the in-range trials straight into buf, so a record is decoded
// once however many batches share its shard. Memory use is bounded by
// the batch plus one shard's counts header.
func (ds *DiskSource) ReadTrials(ctx context.Context, lo, hi int, buf *Table) (*Table, error) {
	if lo < 0 || hi > ds.n || lo > hi {
		return nil, fmt.Errorf("yelt: read trials [%d,%d) outside [0,%d)", lo, hi, ds.n)
	}
	if buf == nil {
		buf = &Table{}
	}
	buf.NumTrials = 0
	buf.Offsets = append(buf.Offsets[:0], 0)
	buf.Occs = buf.Occs[:0]
	if lo == hi {
		return buf, nil
	}
	// First shard whose range extends past lo; shards are contiguous,
	// so subsequent shards are consumed in order until hi is reached.
	first := sort.Search(len(ds.ranges), func(i int) bool { return ds.ranges[i].Hi > lo })
	for si := first; si < len(ds.ranges) && ds.ranges[si].Lo < hi; si++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sr := ds.ranges[si]
		skip := max(lo, sr.Lo) - sr.Lo
		take := min(hi, sr.Hi) - sr.Lo - skip
		// Every attempt starts from the fill level the shard found, so a
		// replica that fails mid-scan leaves nothing behind: the failover
		// read appends exactly what the healthy read would have, keeping
		// results bit-identical to a fault-free run.
		occ0, off0 := len(buf.Occs), len(buf.Offsets)
		err := ds.readShard(si, "scan", func(r io.Reader) error {
			buf.Occs, buf.Offsets = buf.Occs[:occ0], buf.Offsets[:off0]
			rd, err := openShard(r, si, sr.Len())
			if err != nil {
				return err
			}
			if err := rd.Skip(skip); err != nil {
				return err
			}
			return rd.Next(take, buf)
		})
		if err != nil {
			return nil, err
		}
	}
	ds.scanned.Add(int64(len(buf.Occs)))
	return buf, nil
}
