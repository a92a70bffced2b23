package aggregate

import (
	"context"
	"testing"
	"time"

	"repro/internal/diskstore"
	"repro/internal/faultinject"
	"repro/internal/lossindex"
	"repro/internal/stream"
	"repro/internal/synth"
	"repro/internal/yelt"
)

// Where a split runs is scheduling and accounting only. Shard-affine
// lanes over a spilled source and uniform chunks over the materialised
// table of the same trials must both be bit-identical to Sequential;
// over the shards the local/remote byte split must account for exactly
// the spilled dataset (each shard's bytes attributed once, to one side)
// with nearly all of it local, and without shards no bytes are
// accounted at all.
func TestPlacementEquivalenceAndByteAccounting(t *testing.T) {
	ctx := context.Background()
	s := buildScenario(t, synth.Small(67))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	// Thirty equal shards on three nodes, one mapper homed on each.
	store, err := diskstore.Create(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := yelt.Spill(ctx, s.YELT, store, "yelt", 30, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	spilled, err := disk.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 41, Sampling: true, PerContract: true, Workers: 3, BatchTrials: 311}
	want, err := Sequential{}.Run(ctx, &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Every split's run is stretched by the same delay, so the three
	// lanes drain in step: a steal — the only way a scan goes remote —
	// takes a mapper stalling for a whole task, not a late goroutine
	// start on a microsecond split.
	var pace []faultinject.Rule
	for i := 0; i < disk.Shards(); i++ {
		pace = append(pace, faultinject.DelaySplit{Split: i, Delay: 2 * time.Millisecond})
	}
	// SplitTrials larger than any shard: one split per shard, so the
	// pro-rata byte attribution is exact.
	affine, err := MapReduce{SplitTrials: 4096, Faults: faultinject.New(1, pace...)}.Run(ctx,
		&Input{Source: disk, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}, cfg)
	if err != nil {
		t.Fatalf("shard-affine: %v", err)
	}
	resultsBitIdentical(t, "placement/affine", want, affine)
	if affine.BusySeconds <= 0 {
		t.Fatal("shard-affine: no busy time measured")
	}
	if affine.LocalBytes+affine.RemoteBytes != spilled {
		t.Fatalf("shard-affine: local=%d + remote=%d != spilled %d", affine.LocalBytes, affine.RemoteBytes, spilled)
	}
	if 10*affine.LocalBytes < 9*spilled {
		t.Fatalf("shard-affine: only %d of %d bytes scanned node-local", affine.LocalBytes, spilled)
	}

	tbl, err := disk.ReadTrials(ctx, 0, disk.TrialCount(), nil)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := MapReduce{SplitTrials: 300}.Run(ctx,
		&Input{YELT: tbl, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}, cfg)
	if err != nil {
		t.Fatalf("uniform: %v", err)
	}
	resultsBitIdentical(t, "placement/uniform", want, uniform)
	if uniform.BusySeconds <= 0 {
		t.Fatal("uniform: no busy time measured")
	}
	if uniform.LocalBytes != 0 || uniform.RemoteBytes != 0 {
		t.Fatalf("uniform chunks accounted bytes: local=%d remote=%d", uniform.LocalBytes, uniform.RemoteBytes)
	}
}

// A torn primary replica must not shrink the data motion: shard 2's
// primary is truncated in its body, the re-attach verifies its intact
// header, and every scan of the shard fails over to the other replica,
// which holds the whole shard. The run's local and remote bytes must
// sum to the healthy spill's size, as must the re-attached source's
// SizeBytes, and the YLT must still be Sequential's bit for bit.
func TestTornPrimaryByteAccounting(t *testing.T) {
	ctx := context.Background()
	s := buildScenario(t, synth.Small(77))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 53, Sampling: true, PerContract: true, Workers: 3, BatchTrials: 151}
	want, err := Sequential{}.Run(ctx, &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spilled := replicatedSource(t, s, 2)
	healthy, err := spilled.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	store := spilled.Store()
	if err := store.CorruptAt("yelt", 2, spilled.ShardNodes(2)[0]); err != nil {
		t.Fatal(err)
	}
	disk, err := yelt.OpenDiskSource(store, "yelt")
	if err != nil {
		t.Fatal(err)
	}
	// SplitTrials larger than any shard: one split per shard, so the
	// pro-rata byte attribution is exact.
	got, err := MapReduce{SplitTrials: 4096}.Run(ctx,
		&Input{Source: disk, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "torn-primary", want, got)
	if got.ShardFailovers == 0 {
		t.Fatal("no scan failed over from the torn primary: the case tests nothing")
	}
	if got.LocalBytes+got.RemoteBytes != healthy {
		t.Fatalf("local=%d + remote=%d != %d, the bytes the scans read", got.LocalBytes, got.RemoteBytes, healthy)
	}
	if size, err := disk.SizeBytes(); err != nil || size != healthy {
		t.Fatalf("re-attached SizeBytes = %d, %v; the healthy spill's is %d", size, err, healthy)
	}
}

// With a single mapper lane per node and one worker, every home-lane
// shard scans local — only the end-of-run steals of other nodes'
// shards pay remote. The deterministic single-worker schedule makes
// the exact split checkable: worker 0 is homed on node 0, so shards
// 0 and 3 (of 5 shards on 3 nodes) are local.
func TestAffineSingleWorkerAccountsStealsRemote(t *testing.T) {
	s := buildScenario(t, synth.Small(69))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	disk := spilledSource(t, s)
	in := &Input{Source: disk, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}
	res, err := MapReduce{SplitTrials: 4096}.Run(context.Background(), in,
		Config{Workers: 1, BatchTrials: 311})
	if err != nil {
		t.Fatal(err)
	}
	var wantLocal, wantRemote int64
	for sh := 0; sh < disk.Shards(); sh++ {
		b := disk.ShardSizeBytes(sh)
		if disk.ShardNodes(sh)[0] == 0 {
			wantLocal += b
		} else {
			wantRemote += b
		}
	}
	if res.LocalBytes != wantLocal || res.RemoteBytes != wantRemote {
		t.Fatalf("local=%d remote=%d, want local=%d remote=%d",
			res.LocalBytes, res.RemoteBytes, wantLocal, wantRemote)
	}
}

// Satellite regression: under default sizing, mapper splits must align
// with DefaultSpillParts shard boundaries — every shard is exactly one
// split, no split straddles two shards, and the splits exactly tile
// the trial range — even when the trial count divides into neither
// shards nor splits evenly.
func TestDefaultSpillShardsAlignWithMapperSplits(t *testing.T) {
	for _, n := range []int{1_000_000 + 1, 1_000_000, 32768, 32769, 99991, 12345677} {
		shards := stream.Partition(n, DefaultSpillParts(n))
		ranges, shardOf := shardSplits(shards, DefaultSplitTrials)
		if len(ranges) != len(shards) {
			t.Fatalf("n=%d: %d splits over %d shards, want one split per shard", n, len(ranges), len(shards))
		}
		next := 0
		for i, r := range ranges {
			if r.Lo != next {
				t.Fatalf("n=%d: split %d starts at %d, want %d (gap or overlap)", n, i, r.Lo, next)
			}
			if r.Len() <= 0 || r.Len() > DefaultSplitTrials {
				t.Fatalf("n=%d: split %d has %d trials", n, i, r.Len())
			}
			sh := shards[shardOf[i]]
			if r.Lo < sh.Lo || r.Hi > sh.Hi {
				t.Fatalf("n=%d: split %d [%d,%d) straddles shard %d [%d,%d)",
					n, i, r.Lo, r.Hi, shardOf[i], sh.Lo, sh.Hi)
			}
			next = r.Hi
		}
		if next != n {
			t.Fatalf("n=%d: splits cover [0,%d), want [0,%d)", n, next, n)
		}
	}
}
