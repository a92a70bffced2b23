package yelt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/diskstore"
	"repro/internal/faultinject"
	"repro/internal/stream"
)

// spillReplicatedFixture spills a 301-trial table at r=2 across 4
// nodes and returns (table, store, source).
func spillReplicatedFixture(t *testing.T) (*Table, *diskstore.Store, *DiskSource) {
	t.Helper()
	ctx := context.Background()
	cat := testCatalog(t, 500)
	tbl, err := Generate(ctx, cat, Config{NumTrials: 301}, 11)
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t, 4)
	ds, err := Spill(ctx, tbl, store, "yelt", 7, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, store, ds
}

func TestSpillReplicatedRoundTrip(t *testing.T) {
	ctx := context.Background()
	tbl, store, ds := spillReplicatedFixture(t)
	for i := 0; i < ds.Shards(); i++ {
		want := store.ReplicaNodesFor(i, 2)
		if got := ds.ShardNodes(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d nodes = %v, want %v", i, got, want)
		}
		var copies [][]byte
		for _, node := range want {
			err := store.ReadPartitionAt("yelt", i, node, func(r io.Reader) error {
				b, err := io.ReadAll(r)
				copies = append(copies, b)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(copies[0], copies[1]) {
			t.Fatalf("shard %d: replicas differ", i)
		}
		if got := ds.ShardSizeBytes(i); got != int64(len(copies[0])) {
			t.Fatalf("shard %d size %d, its replicas hold %d bytes", i, got, len(copies[0]))
		}
	}
	want, err := tbl.Slice(0, 301)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.ReadTrials(ctx, 0, 301, &Table{})
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "replicated spill", want, got)
	if ds.Failovers() != 0 {
		t.Fatalf("healthy store recorded %d failovers", ds.Failovers())
	}

	// Physical footprint is twice the logical one: every shard (and the
	// manifest) exists on two nodes.
	logical, err := ds.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	physical, err := store.TotalSizeBytes("yelt")
	if err != nil {
		t.Fatal(err)
	}
	if physical != 2*logical {
		t.Fatalf("physical %d, logical %d: replication factor not 2", physical, logical)
	}
}

func TestOpenDiskSourceRecoversReplicaSets(t *testing.T) {
	_, store, ds := spillReplicatedFixture(t)
	re, err := OpenDiskSource(store, "yelt")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Shards(); i++ {
		if !reflect.DeepEqual(re.ShardNodes(i), ds.ShardNodes(i)) {
			t.Fatalf("shard %d: reattached nodes %v != spilled %v", i, re.ShardNodes(i), ds.ShardNodes(i))
		}
		if re.ShardSizeBytes(i) != ds.ShardSizeBytes(i) {
			t.Fatalf("shard %d: reattached size %d != spilled %d", i, re.ShardSizeBytes(i), ds.ShardSizeBytes(i))
		}
	}
}

// A shard's size is the bytes a scan of it reads, not its primary
// file's: tearing shard 2's primary in its body leaves the header
// intact, so the re-attach verifies that copy without a failover, and
// every scan then fails over to the intact replica. The re-attached
// size must be the healthy spill's, shard by shard and in total.
func TestReattachSizeAfterTornPrimary(t *testing.T) {
	_, store, ds := spillReplicatedFixture(t)
	healthy, err := ds.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	healthy2 := ds.ShardSizeBytes(2)
	if err := store.CorruptAt("yelt", 2, ds.ShardNodes(2)[0]); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDiskSource(store, "yelt")
	if err != nil {
		t.Fatal(err)
	}
	if got := re.ShardSizeBytes(2); got != healthy2 {
		t.Fatalf("shard 2 after a torn primary: size %d, the healthy spill's is %d", got, healthy2)
	}
	if got, err := re.SizeBytes(); err != nil || got != healthy {
		t.Fatalf("SizeBytes after a torn primary = %d, %v; the healthy spill's is %d", got, err, healthy)
	}
}

// A replica that dies mid-scan (truncated file: the header reads fine,
// the trial stream tears halfway) must roll back its partial progress
// and fail over, yielding a batch bit-identical to the healthy read.
func TestReadTrialsFailsOverTruncatedReplicaMidStream(t *testing.T) {
	ctx := context.Background()
	tbl, store, ds := spillReplicatedFixture(t)
	want, err := tbl.Slice(0, 301)
	if err != nil {
		t.Fatal(err)
	}
	// Tear shard 3's primary replica halfway through its body.
	bad := ds.ShardNodes(3)[0]
	if err := store.CorruptAt("yelt", 3, bad); err != nil {
		t.Fatal(err)
	}
	got, err := ds.ReadTrials(ctx, 0, 301, &Table{})
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "failover batch", want, got)
	if ds.Failovers() == 0 {
		t.Fatal("no failover recorded for the torn replica")
	}
	log := strings.Join(ds.FailoverLog(), "\n")
	if !strings.Contains(log, "shard 3") {
		t.Fatalf("failover log does not name shard 3:\n%s", log)
	}
}

// Injected read faults (healthy files, erroring disk) exercise the
// same failover, and the plan's per-node scoping pins which replica
// the scan lands on.
func TestReadTrialsFailsOverInjectedFault(t *testing.T) {
	ctx := context.Background()
	tbl, store, ds := spillReplicatedFixture(t)
	bad := ds.ShardNodes(2)[0]
	plan := faultinject.New(7, faultinject.FailShardRead{
		Shard: 2, Node: bad, Attempts: 1000,
	})
	store.SetReadFault(plan.DiskRead)
	defer store.SetReadFault(nil)

	want, err := tbl.Slice(0, 301)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.ReadTrials(ctx, 0, 301, &Table{})
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "injected-fault batch", want, got)
	if ds.Failovers() == 0 || plan.Injected() == 0 {
		t.Fatalf("failovers=%d injected=%d, want both > 0", ds.Failovers(), plan.Injected())
	}
	log := strings.Join(ds.FailoverLog(), "\n")
	if !strings.Contains(log, "injected") {
		t.Fatalf("failover log does not name the injected fault:\n%s", log)
	}
}

// When every replica of a shard fails, ReadTrials must report the
// shard and each replica's failure instead of returning short data.
func TestReadTrialsAllReplicasFail(t *testing.T) {
	ctx := context.Background()
	_, store, ds := spillReplicatedFixture(t)
	plan := faultinject.New(7, faultinject.FailShardRead{
		Shard: 1, Node: faultinject.Any, Attempts: 1000,
	})
	store.SetReadFault(plan.DiskRead)
	defer store.SetReadFault(nil)
	_, err := ds.ReadTrials(ctx, 0, 301, &Table{})
	if err == nil {
		t.Fatal("scan should fail when every replica errors")
	}
	for _, wantSub := range []string{"shard 1", "all replicas failed", "injected"} {
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("error %q does not mention %q", err, wantSub)
		}
	}
}

// Losing one replica of a shard — and the manifest's primary copy —
// must not stop a re-attach: OpenDiskSource verifies from survivors
// and logs which replica was bad.
func TestOpenDiskSourceFailsOverLostReplica(t *testing.T) {
	ctx := context.Background()
	tbl, store, ds := spillReplicatedFixture(t)
	if err := store.RemoveAt("yelt", 2, ds.ShardNodes(2)[0]); err != nil {
		t.Fatal(err)
	}
	if err := store.RemoveAt("yelt.manifest", 0, store.NodeOf(0)); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDiskSource(store, "yelt")
	if err != nil {
		t.Fatal(err)
	}
	if re.Failovers() == 0 {
		t.Fatal("no failover recorded for the lost replica")
	}
	log := strings.Join(re.FailoverLog(), "\n")
	if !strings.Contains(log, "shard 2") {
		t.Fatalf("failover log does not name shard 2:\n%s", log)
	}
	want, err := tbl.Slice(0, 301)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.ReadTrials(ctx, 0, 301, &Table{})
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "post-loss reattach", want, got)
}

// A torn primary copy of the manifest must not stop a re-attach either:
// each replica is bounded by its own bytes, so the intact copy on the
// next node opens the spill.
func TestOpenDiskSourceFailsOverTornManifest(t *testing.T) {
	ctx := context.Background()
	tbl, store, _ := spillReplicatedFixture(t)
	if err := store.CorruptAt("yelt.manifest", 0, store.NodeOf(0)); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDiskSource(store, "yelt")
	if err != nil {
		t.Fatal(err)
	}
	want, err := tbl.Slice(0, 301)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.ReadTrials(ctx, 0, 301, &Table{})
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "torn-manifest reattach", want, got)
}

// Losing every replica of a shard is unrecoverable and must be
// refused by name, exactly like the unreplicated missing-shard case.
func TestOpenDiskSourceRefusesWhenAllReplicasLost(t *testing.T) {
	_, store, ds := spillReplicatedFixture(t)
	for _, node := range ds.ShardNodes(4) {
		if err := store.RemoveAt("yelt", 4, node); err != nil {
			t.Fatal(err)
		}
	}
	wantOpenError(t, store, "yelt", "missing shard 4")
}

// failingSource is a trial source that dies at trial failAt: every read
// reaching it fails.
type failingSource struct {
	Source
	failAt int
}

func (f failingSource) ReadTrials(ctx context.Context, lo, hi int, buf *Table) (*Table, error) {
	if hi > f.failAt {
		return nil, errors.New("source died")
	}
	return f.Source.ReadTrials(ctx, lo, hi, buf)
}

// A spill that dies at shard k, after shards 0..k−1 committed on both
// replicas and with a killed writer's temp file left on shard k's
// node, must be refused on attach. A re-spill into the same store must
// then leave exactly its own shard and manifest replicas — no stale
// shard, no temp file — and read back bit-identical.
func TestRespillAfterCrashedReplicatedSpill(t *testing.T) {
	ctx := context.Background()
	tbl, err := Generate(ctx, testCatalog(t, 500), Config{NumTrials: 301}, 11)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := diskstore.Create(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	const parts, k = 7, 4
	crashed := failingSource{Source: tbl, failAt: stream.Partition(tbl.NumTrials, parts)[k].Lo + 1}
	if _, err := Spill(ctx, crashed, store, "yelt", parts, 2, 1); err == nil {
		t.Fatal("spill of a source that dies at shard 4 succeeded")
	}
	func() {
		defer func() { _ = recover() }()
		store.WritePartitionAt("yelt", k, store.NodeOf(k), func(w io.Writer) error {
			w.(*os.File).Close() // the kernel closes a killed writer's files
			panic("killed mid-write")
		})
	}()
	if got, err := store.Partitions("yelt"); err != nil || len(got) != k {
		t.Fatalf("crashed spill committed shards %v (%v), want 0..%d", got, err, k-1)
	}
	if _, err := OpenDiskSource(store, "yelt"); err == nil {
		t.Fatal("attach to a spill that never committed its manifest succeeded")
	}

	ds, err := Spill(ctx, tbl, store, "yelt", 5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for i := 0; i < 5; i++ {
		for _, n := range store.ReplicaNodesFor(i, 2) {
			want[fmt.Sprintf("node-%03d/yelt.part-%05d", n, i)] = true
		}
	}
	for _, n := range store.ReplicaNodesFor(0, 2) {
		want[fmt.Sprintf("node-%03d/yelt.manifest.part-00000", n)] = true
	}
	got, err := filepath.Glob(filepath.Join(dir, "node-*", "*")) // dot files too
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range got {
		if got[i], err = filepath.Rel(dir, p); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("re-spill left %d files %q, want %d", len(got), got, len(want))
	}
	for _, f := range got {
		if !want[f] {
			t.Fatalf("re-spill left %q, which is not one of its shard or manifest replicas", f)
		}
	}
	re, err := OpenDiskSource(store, "yelt")
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []*DiskSource{ds, re} {
		read, err := src.ReadTrials(ctx, 0, tbl.NumTrials, nil)
		if err != nil {
			t.Fatal(err)
		}
		tablesEqual(t, "re-spilled", tbl, read)
	}
}

// An unreplicated source hit by a mid-stream read error has nowhere to
// fail over — the scan must surface the error, not return short data.
func TestReadTrialsUnreplicatedMidStreamError(t *testing.T) {
	ctx := context.Background()
	cat := testCatalog(t, 500)
	tbl, err := Generate(ctx, cat, Config{NumTrials: 120}, 5)
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t, 2)
	ds, err := Spill(ctx, tbl, store, "ds", 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.New(3, faultinject.FailShardRead{
		Shard: 1, Node: faultinject.Any, Attempts: 1,
	})
	store.SetReadFault(plan.DiskRead)
	defer store.SetReadFault(nil)
	if _, err := ds.ReadTrials(ctx, 0, 120, &Table{}); err == nil {
		t.Fatal("unreplicated scan under an injected fault should fail")
	} else if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("error should wrap ErrInjected: %v", err)
	}
	// The injected fault burned its budget: the next scan succeeds —
	// the retry behaviour mapreduce's attempt loop relies on.
	want, err := tbl.Slice(0, 120)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.ReadTrials(ctx, 0, 120, &Table{})
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "post-fault retry", want, got)
}
