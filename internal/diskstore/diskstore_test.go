package diskstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newStore(t *testing.T, nodes int) *Store {
	t.Helper()
	s, err := Create(t.TempDir(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCreateValidation(t *testing.T) {
	if _, err := Create(t.TempDir(), 0); err == nil {
		t.Fatal("zero nodes should error")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := newStore(t, 3)
	for p := 0; p < 7; p++ {
		p := p
		err := s.WritePartitionAt("yelt", p, s.NodeOf(p), func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "partition-%d", p)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 7; p++ {
		var got string
		err := s.ReadPartitionAt("yelt", p, s.NodeOf(p), func(r io.Reader) error {
			b, err := io.ReadAll(r)
			got = string(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("partition-%d", p); got != want {
			t.Fatalf("partition %d = %q, want %q", p, got, want)
		}
	}
}

func TestPartitionsSortedAndPlacement(t *testing.T) {
	s := newStore(t, 3)
	for _, p := range []int{4, 0, 2, 1, 3} {
		if err := s.WritePartitionAt("ds", p, s.NodeOf(p), func(w io.Writer) error {
			_, err := w.Write([]byte{1})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	parts, err := s.Partitions("ds")
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if p != i {
			t.Fatalf("Partitions = %v", parts)
		}
	}
	// Round-robin placement across nodes.
	if s.NodeOf(0) != 0 || s.NodeOf(4) != 1 || s.NodeOf(5) != 2 {
		t.Fatal("placement broken")
	}
	if s.Nodes() != 3 {
		t.Fatal("Nodes()")
	}
}

func TestMissingDataset(t *testing.T) {
	s := newStore(t, 2)
	if _, err := s.Partitions("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := s.ReadPartitionAt("nope", 0, s.NodeOf(0), func(io.Reader) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.SizeBytes("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteErrorCleansUp(t *testing.T) {
	s := newStore(t, 1)
	boom := errors.New("write boom")
	err := s.WritePartitionAt("bad", 0, s.NodeOf(0), func(io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Partitions("bad"); !errors.Is(err, ErrNotFound) {
		t.Fatal("failed write should leave no partition behind")
	}
}

// nodeFiles lists the file names under one node directory.
func nodeFiles(t *testing.T, s *Store, node int) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(s.root, fmt.Sprintf("node-%03d", node)))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// A failed write must leave nothing on disk — not even the temp file
// the atomic-rename protocol writes through.
func TestWriteErrorLeavesNoTempFile(t *testing.T) {
	s := newStore(t, 1)
	err := s.WritePartitionAt("torn", 0, s.NodeOf(0), func(w io.Writer) error {
		// Partial content followed by a failure — the torn-write shape.
		if _, err := w.Write([]byte("half a part")); err != nil {
			return err
		}
		return errors.New("crash mid-write")
	})
	if err == nil {
		t.Fatal("failed write should error")
	}
	if files := nodeFiles(t, s, 0); len(files) != 0 {
		t.Fatalf("failed write left files behind: %v", files)
	}
}

// A write interrupted before commit (simulated by a stray in-progress
// temp file) must be invisible to Partitions, ReadPartitionAt, and
// SizeBytes: only renamed-in partitions exist.
func TestInProgressTempInvisible(t *testing.T) {
	s := newStore(t, 1)
	if err := s.WritePartitionAt("ds", 0, s.NodeOf(0), func(w io.Writer) error {
		_, err := w.Write([]byte("good"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// What a crash between CreateTemp and Rename leaves behind.
	stray := filepath.Join(s.root, "node-000", ".ds.part-00001.tmp-1234")
	if err := os.WriteFile(stray, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	parts, err := s.Partitions("ds")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || parts[0] != 0 {
		t.Fatalf("Partitions = %v, want [0] (temp file must be invisible)", parts)
	}
	if err := s.ReadPartitionAt("ds", 1, s.NodeOf(1), func(io.Reader) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("reading the torn partition: err = %v, want ErrNotFound", err)
	}
	size, err := s.SizeBytes("ds")
	if err != nil {
		t.Fatal(err)
	}
	if size != 4 {
		t.Fatalf("SizeBytes = %d, want 4 (committed partition only)", size)
	}
}

// A writer killed between creating its temp file and the rename leaves
// that file behind, and nothing else ever removes it: Delete must
// reclaim the dataset's temp files on every node, whether or not any
// of its partitions committed, and leave other datasets' files alone.
func TestDeleteReclaimsKilledWriterTemps(t *testing.T) {
	s := newStore(t, 3)
	kill := func(dataset string, part, node int) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s part %d: writer was not killed", dataset, part)
			}
		}()
		s.WritePartitionAt(dataset, part, node, func(w io.Writer) error {
			if _, err := w.Write([]byte("torn")); err != nil {
				return err
			}
			w.(*os.File).Close() // the kernel closes a killed process's files
			panic("killed mid-write")
		})
	}
	for p := 0; p < 2; p++ {
		if err := s.WritePartitionAt("ds", p, s.NodeOf(p), func(w io.Writer) error {
			_, err := w.Write([]byte("good"))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	kill("ds", 2, 2)
	kill("ds", 0, 1)
	kill("ds.manifest", 0, 0)
	kill("other", 0, 0)

	if err := s.Delete("ds"); err != nil {
		t.Fatal(err)
	}
	var left []string
	for n := 0; n < s.Nodes(); n++ {
		left = append(left, nodeFiles(t, s, n)...)
	}
	if len(left) != 2 || !strings.HasPrefix(left[0], ".ds.manifest.part-00000.tmp-") || !strings.HasPrefix(left[1], ".other.part-00000.tmp-") {
		t.Fatalf("after Delete(ds) the nodes hold %q, want only the other datasets' temp files", left)
	}
	// A dataset that never committed a partition is not found, and its
	// temp files go all the same.
	if err := s.Delete("ds.manifest"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete of a dataset with only temp files: %v, want ErrNotFound", err)
	}
	if files := nodeFiles(t, s, 0); len(files) != 1 || !strings.HasPrefix(files[0], ".other.part-") {
		t.Fatalf("node 0 holds %q, want only other's temp file", files)
	}
}

// A successful write commits exactly one file — the final partition —
// with the temp file gone.
func TestWriteCommitsAtomically(t *testing.T) {
	s := newStore(t, 1)
	if err := s.WritePartitionAt("ok", 3, s.NodeOf(3), func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	files := nodeFiles(t, s, 0)
	if len(files) != 1 || files[0] != "ok.part-00003" {
		t.Fatalf("node files = %v, want exactly [ok.part-00003]", files)
	}
	var got string
	if err := s.ReadPartitionAt("ok", 3, s.NodeOf(3), func(r io.Reader) error {
		b, err := io.ReadAll(r)
		got = string(b)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != "payload" {
		t.Fatalf("content = %q", got)
	}
}

func TestSizeAndDelete(t *testing.T) {
	s := newStore(t, 2)
	payload := make([]byte, 1000)
	for p := 0; p < 4; p++ {
		if err := s.WritePartitionAt("big", p, s.NodeOf(p), func(w io.Writer) error {
			_, err := w.Write(payload)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	size, err := s.SizeBytes("big")
	if err != nil {
		t.Fatal(err)
	}
	if size != 4000 {
		t.Fatalf("size = %d", size)
	}
	if err := s.Delete("big"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Partitions("big"); !errors.Is(err, ErrNotFound) {
		t.Fatal("dataset should be gone")
	}
}

func TestCorruptTruncates(t *testing.T) {
	s := newStore(t, 1)
	if err := s.WritePartitionAt("c", 0, s.NodeOf(0), func(w io.Writer) error {
		_, err := w.Write(make([]byte, 100))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Corrupt("c", 0); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := s.ReadPartitionAt("c", 0, s.NodeOf(0), func(r io.Reader) error {
		b, err := io.ReadAll(r)
		n = len(b)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("corrupted partition has %d bytes, want 50", n)
	}
	if err := s.Corrupt("c", 9); !errors.Is(err, ErrNotFound) {
		t.Fatal("corrupting a missing partition should report not found")
	}
}

func TestOpenDiscoversNodes(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, 4); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes() != 4 {
		t.Fatalf("Nodes = %d", s.Nodes())
	}
	empty := t.TempDir()
	if _, err := Open(empty); !errors.Is(err, ErrNotFound) {
		t.Fatal("empty dir should not open")
	}
	if _, err := Open(filepath.Join(empty, "missing")); err == nil {
		t.Fatal("missing dir should error")
	}
}

func TestNodeDirectoriesOnDisk(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("node-%03d", i))); err != nil {
			t.Fatalf("node dir %d missing: %v", i, err)
		}
	}
}

// The durable-commit path (content fsync, rename, node-dir fsync) must
// still present exactly the committed file: no temp residue survives,
// and the commit is readable immediately after WritePartitionAt returns.
func TestWriteDurableCommitLeavesOnlyFinalFile(t *testing.T) {
	s := newStore(t, 2)
	for p := 0; p < 4; p++ {
		payload := fmt.Sprintf("shard-%d", p)
		if err := s.WritePartitionAt("dur", p, s.NodeOf(p), func(w io.Writer) error {
			_, err := w.Write([]byte(payload))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < 2; n++ {
		for _, f := range nodeFiles(t, s, n) {
			if strings.Contains(f, ".tmp-") {
				t.Fatalf("node %d holds temp residue %q after durable commit", n, f)
			}
		}
	}
	for p := 0; p < 4; p++ {
		var got string
		if err := s.ReadPartitionAt("dur", p, s.NodeOf(p), func(r io.Reader) error {
			b, err := io.ReadAll(r)
			got = string(b)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("shard-%d", p); got != want {
			t.Fatalf("part %d content = %q, want %q", p, got, want)
		}
	}
}

func TestPartitionSizeBytes(t *testing.T) {
	s := newStore(t, 2)
	for p, n := range []int{100, 250, 7} {
		if err := s.WritePartitionAt("sz", p, s.NodeOf(p), func(w io.Writer) error {
			_, err := w.Write(make([]byte, n))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	for p, want := range []int64{100, 250, 7} {
		got, err := s.PartitionSizeBytes("sz", p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("part %d size = %d, want %d", p, got, want)
		}
	}
	if _, err := s.PartitionSizeBytes("sz", 9); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing partition size should report not found")
	}
}

func TestRemoveSinglePartition(t *testing.T) {
	s := newStore(t, 3)
	for p := 0; p < 3; p++ {
		if err := s.WritePartitionAt("rm", p, s.NodeOf(p), func(w io.Writer) error {
			_, err := w.Write([]byte{1})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Remove("rm", 1); err != nil {
		t.Fatal(err)
	}
	parts, err := s.Partitions("rm")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || parts[0] != 0 || parts[1] != 2 {
		t.Fatalf("Partitions = %v, want [0 2]", parts)
	}
	if err := s.Remove("rm", 1); !errors.Is(err, ErrNotFound) {
		t.Fatal("removing a missing partition should report not found")
	}
}
