package diskstore

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// writeReplicated writes part to its r placement nodes with content.
func writeReplicated(t *testing.T, s *Store, dataset string, part, replicas int, content string) {
	t.Helper()
	for _, node := range s.ReplicaNodesFor(part, replicas) {
		err := s.WritePartitionAt(dataset, part, node, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		})
		if err != nil {
			t.Fatalf("write part %d node %d: %v", part, node, err)
		}
	}
}

func TestReplicaNodesForPlacement(t *testing.T) {
	s, err := Create(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ReplicaNodesFor(2, 2); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("ReplicaNodesFor(2, 2) = %v, want [2 3]", got)
	}
	if got := s.ReplicaNodesFor(3, 2); !reflect.DeepEqual(got, []int{3, 0}) {
		t.Fatalf("ReplicaNodesFor(3, 2) = %v, want [3 0] (wraps)", got)
	}
	if got := s.ReplicaNodesFor(1, 0); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("ReplicaNodesFor(1, 0) = %v, want [1] (clamped up)", got)
	}
	if got := s.ReplicaNodesFor(0, 9); len(got) != 4 {
		t.Fatalf("ReplicaNodesFor(0, 9) = %v, want 4 nodes (clamped down)", got)
	}
}

func TestReplicatedPartitionsDeduped(t *testing.T) {
	s, err := Create(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		writeReplicated(t, s, "ds", p, 2, fmt.Sprintf("part %d", p))
	}
	parts, err := s.Partitions("ds")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parts, []int{0, 1, 2}) {
		t.Fatalf("Partitions = %v, want [0 1 2] (replicas deduped)", parts)
	}
}

func TestReplicaDiscoveryAndSizes(t *testing.T) {
	s, err := Create(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	writeReplicated(t, s, "ds", 1, 2, "0123456789")
	nodes, err := s.ReplicaNodes("ds", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nodes, []int{1, 2}) {
		t.Fatalf("ReplicaNodes = %v, want [1 2]", nodes)
	}
	if n, err := s.TotalSizeBytes("ds"); err != nil || n != 20 {
		t.Fatalf("TotalSizeBytes = %d, %v; want 20 (physical)", n, err)
	}

	// Losing the primary: discovery, sizing and Delete survive on the
	// second replica.
	if err := s.RemoveAt("ds", 1, 1); err != nil {
		t.Fatal(err)
	}
	nodes, err = s.ReplicaNodes("ds", 1)
	if err != nil || !reflect.DeepEqual(nodes, []int{2}) {
		t.Fatalf("after primary loss ReplicaNodes = %v, %v; want [2]", nodes, err)
	}
	if n, err := s.TotalSizeBytes("ds"); err != nil || n != 10 {
		t.Fatalf("TotalSizeBytes after primary loss = %d, %v; want 10 (the survivor)", n, err)
	}
	if err := s.Delete("ds"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Partitions("ds"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after Delete: want ErrNotFound, got %v", err)
	}
}

func TestReadPartitionAtAndFaultHook(t *testing.T) {
	s, err := Create(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	writeReplicated(t, s, "ds", 0, 2, "payload")

	read := func(node int) (string, error) {
		var got string
		err := s.ReadPartitionAt("ds", 0, node, func(r io.Reader) error {
			b, err := io.ReadAll(r)
			got = string(b)
			return err
		})
		return got, err
	}
	for _, node := range []int{0, 1} {
		if got, err := read(node); err != nil || got != "payload" {
			t.Fatalf("node %d: got %q, %v", node, got, err)
		}
	}
	if _, err := read(2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("node 2 holds no replica: want ErrNotFound, got %v", err)
	}

	// An injected fault fails the read even though the file is healthy,
	// and only on the node the hook names.
	boom := errors.New("injected")
	s.SetReadFault(func(dataset string, part, node int) error {
		if dataset == "ds" && part == 0 && node == 0 {
			return boom
		}
		return nil
	})
	if _, err := read(0); !errors.Is(err, boom) {
		t.Fatalf("node 0: want injected fault, got %v", err)
	}
	if got, err := read(1); err != nil || got != "payload" {
		t.Fatalf("node 1 should be unaffected: %q, %v", got, err)
	}
	s.SetReadFault(nil)
	if _, err := read(0); err != nil {
		t.Fatalf("hook cleared, node 0 should read: %v", err)
	}
}

func TestCorruptAtLeavesOtherReplicaIntact(t *testing.T) {
	s, err := Create(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	writeReplicated(t, s, "ds", 1, 2, "0123456789")
	if err := s.CorruptAt("ds", 1, 1); err != nil {
		t.Fatal(err)
	}
	size := func(node int) int64 {
		var n int64
		err := s.ReadPartitionAt("ds", 1, node, func(r io.Reader) error {
			b, err := io.ReadAll(r)
			n = int64(len(b))
			return err
		})
		if err != nil {
			t.Fatalf("read node %d: %v", node, err)
		}
		return n
	}
	if got := size(1); got != 5 {
		t.Fatalf("corrupted replica size = %d, want 5", got)
	}
	if got := size(2); got != 10 {
		t.Fatalf("healthy replica size = %d, want 10", got)
	}
}

func TestWritePartitionAtRejectsBadNode(t *testing.T) {
	s, err := Create(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WritePartitionAt("ds", 0, 5, func(io.Writer) error { return nil }); err == nil {
		t.Fatal("node out of range should fail")
	}
}
