// Package diskstore is the "accumulate large distributed file space"
// strategy from the paper (§II, §III): datasets partitioned across the
// local directories of a set of (simulated) storage nodes, written
// once and consumed by sequential scans. It is the storage layer under
// internal/mapreduce, standing in for HDFS-style distributed file
// systems, and it deliberately offers no random access — matching the
// paper's observation that these workloads scan.
package diskstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// ErrNotFound is returned for missing datasets or partitions.
var ErrNotFound = errors.New("diskstore: not found")

// Store is a dataset namespace partitioned across node directories.
// A partition may be replicated: the same file written under several
// node directories (see ReplicaNodesFor for the placement rule). All
// replica-aware methods treat the file under any node directory as
// the same logical partition.
type Store struct {
	root  string
	nodes int
	// readFault, when set, is consulted before every partition read
	// attempt — the deterministic fault-injection hook. It must be set
	// (SetReadFault) before concurrent readers start.
	readFault func(dataset string, part, node int) error
}

// SetReadFault installs a fault-injection hook consulted before each
// read attempt of (dataset, part) on a node; a non-nil error fails the
// attempt as if the disk had. Install before readers start; nil clears.
func (s *Store) SetReadFault(fn func(dataset string, part, node int) error) {
	s.readFault = fn
}

// Create initializes a store rooted at dir with the given node count,
// creating node directories. dir is created if missing.
func Create(dir string, nodes int) (*Store, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("diskstore: node count %d", nodes)
	}
	for i := 0; i < nodes; i++ {
		if err := os.MkdirAll(nodeDir(dir, i), 0o755); err != nil {
			return nil, fmt.Errorf("diskstore: creating node %d: %w", i, err)
		}
	}
	return &Store{root: dir, nodes: nodes}, nil
}

// Open attaches to an existing store, discovering its node count.
func Open(dir string) (*Store, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	nodes := 0
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "node-") {
			nodes++
		}
	}
	if nodes == 0 {
		return nil, fmt.Errorf("%w: no node directories under %s", ErrNotFound, dir)
	}
	return &Store{root: dir, nodes: nodes}, nil
}

func nodeDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("node-%03d", i))
}

// Nodes returns the number of storage nodes.
func (s *Store) Nodes() int { return s.nodes }

// NodeOf returns the node a partition primarily lives on (round-robin
// placement). With replication this is the first replica's node.
func (s *Store) NodeOf(part int) int { return part % s.nodes }

// ReplicaNodesFor returns the placement rule for r replicas of a
// partition: consecutive nodes starting at the primary, (NodeOf+k) mod
// nodes — chained declustering, so losing one node leaves every
// partition with a survivor on the next node. r is clamped to the node
// count (more replicas than nodes would collide).
func (s *Store) ReplicaNodesFor(part, replicas int) []int {
	if replicas < 1 {
		replicas = 1
	}
	if replicas > s.nodes {
		replicas = s.nodes
	}
	nodes := make([]int, replicas)
	for k := range nodes {
		nodes[k] = (s.NodeOf(part) + k) % s.nodes
	}
	return nodes
}

func (s *Store) pathAt(dataset string, part, node int) string {
	return filepath.Join(nodeDir(s.root, node),
		fmt.Sprintf("%s.part-%05d", dataset, part))
}

// WritePartitionAt creates one replica of partition part of dataset
// under node's directory, streaming content through fn (NodeOf(part) is
// the partition's primary node). The content is written to a temporary
// file on that node and renamed into place only after fn, Sync and
// Close succeed, so a crash or error mid-write can never leave a torn
// partition that Open/Partitions would treat as valid: the partition
// either exists complete or not at all. The commit is durable, not
// just atomic: the content is fsynced before the rename and the node
// directory is fsynced after it, so a power loss between the rename
// and an unmount cannot roll a committed shard back to absent (the
// rename itself lives in the directory, which is its own file). Stray
// temp files (a leading dot and a ".tmp-" tail) are invisible to
// Partitions and ReadPartitionAt; Delete reclaims them. Replicated
// spills call it once per replica node; each replica commits (or
// fails) independently, and the dataset-level commit record (e.g. a
// manifest) is what makes the set authoritative.
func (s *Store) WritePartitionAt(dataset string, part, node int, fn func(io.Writer) error) error {
	if node < 0 || node >= s.nodes {
		return fmt.Errorf("diskstore: node %d out of range [0,%d)", node, s.nodes)
	}
	path := s.pathAt(dataset, part, node)
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("diskstore: create temp for %s: %w", path, err)
	}
	tmp := f.Name()
	// CreateTemp makes the file 0600; restore os.Create's world-readable
	// mode so committed partitions stay shareable across processes.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("diskstore: chmod %s: %w", path, err)
	}
	if err := fn(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("diskstore: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("diskstore: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("diskstore: close %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("diskstore: commit %s: %w", path, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("diskstore: sync node dir for %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so a rename recorded in it survives a
// crash. Filesystems that refuse fsync on directories (some network
// mounts) report EINVAL or ENOTSUP; durability is best-effort there,
// matching what the platform can promise.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// ReadPartitionAt streams one replica of a partition through fn;
// callers supply their own failover order. The read-fault hook
// (SetReadFault) is consulted first, so an injected fault fails the
// attempt even when the file on disk is healthy — modelling a node
// whose disk errors, not a missing file.
func (s *Store) ReadPartitionAt(dataset string, part, node int, fn func(io.Reader) error) error {
	if s.readFault != nil {
		if err := s.readFault(dataset, part, node); err != nil {
			return err
		}
	}
	path := s.pathAt(dataset, part, node)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: %s part %d (node %d)", ErrNotFound, dataset, part, node)
		}
		return fmt.Errorf("diskstore: open %s: %w", path, err)
	}
	defer f.Close()
	return fn(f)
}

// ReplicaNodes discovers which nodes hold a copy of a partition by
// scanning node directories, in placement order (primary first, then
// successive nodes). It reads the filesystem, not a manifest, so it
// also sees replicas a manifest does not know about.
func (s *Store) ReplicaNodes(dataset string, part int) ([]int, error) {
	var nodes []int
	for k := 0; k < s.nodes; k++ {
		n := (s.NodeOf(part) + k) % s.nodes
		if _, err := os.Stat(s.pathAt(dataset, part, n)); err == nil {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: %s part %d", ErrNotFound, dataset, part)
	}
	return nodes, nil
}

// Partitions returns the sorted partition numbers of a dataset. A
// partition replicated on several nodes is reported once: the logical
// partition set, not the physical file set.
func (s *Store) Partitions(dataset string) ([]int, error) {
	seen := map[int]bool{}
	for n := 0; n < s.nodes; n++ {
		entries, err := os.ReadDir(nodeDir(s.root, n))
		if err != nil {
			return nil, fmt.Errorf("diskstore: listing node %d: %w", n, err)
		}
		for _, e := range entries {
			if p, temp, ok := partFile(dataset, e.Name()); ok && !temp {
				seen[p] = true
			}
		}
	}
	if len(seen) == 0 {
		return nil, fmt.Errorf("%w: dataset %s", ErrNotFound, dataset)
	}
	parts := make([]int, 0, len(seen))
	for p := range seen {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	return parts, nil
}

// TotalSizeBytes returns the physical on-disk size of a dataset —
// every replica of every partition. The replication cost column.
func (s *Store) TotalSizeBytes(dataset string) (int64, error) {
	parts, err := s.Partitions(dataset)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range parts {
		nodes, err := s.ReplicaNodes(dataset, p)
		if err != nil {
			return 0, err
		}
		for _, n := range nodes {
			info, err := os.Stat(s.pathAt(dataset, p, n))
			if err != nil {
				return 0, fmt.Errorf("diskstore: stat part %d node %d: %w", p, n, err)
			}
			total += info.Size()
		}
	}
	return total, nil
}

// Delete removes all partitions of a dataset, every replica included,
// and the temp files of partition writes that never committed — what a
// writer killed mid-partition leaves behind, invisible to Partitions
// but not to the disk. It reports ErrNotFound when no partition was
// committed, after removing any such temp files all the same.
func (s *Store) Delete(dataset string) error {
	committed := false
	for n := 0; n < s.nodes; n++ {
		dir := nodeDir(s.root, n)
		entries, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("diskstore: listing node %d: %w", n, err)
		}
		for _, e := range entries {
			_, temp, ok := partFile(dataset, e.Name())
			if !ok {
				continue
			}
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("diskstore: delete %s on node %d: %w", e.Name(), n, err)
			}
			committed = committed || !temp
		}
	}
	if !committed {
		return fmt.Errorf("%w: dataset %s", ErrNotFound, dataset)
	}
	return nil
}

// partFile reports whether a node-directory entry belongs to dataset:
// a committed partition, "<dataset>.part-NNNNN" (pathAt), or the temp
// file WritePartitionAt writes one through, ".<dataset>.part-NNNNN.tmp-*".
func partFile(dataset, name string) (part int, temp, ok bool) {
	rest, found := strings.CutPrefix(name, dataset+".part-")
	if !found {
		if rest, found = strings.CutPrefix(name, "."+dataset+".part-"); !found {
			return 0, false, false
		}
		if rest, _, found = strings.Cut(rest, ".tmp-"); !found {
			return 0, false, false
		}
		temp = true
	}
	part, err := strconv.Atoi(rest)
	return part, temp, err == nil
}

// RemoveAt deletes one replica of a partition from one node — the
// replicated-store failure-injection hook.
func (s *Store) RemoveAt(dataset string, part, node int) error {
	if err := os.Remove(s.pathAt(dataset, part, node)); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: %s part %d (node %d)", ErrNotFound, dataset, part, node)
		}
		return fmt.Errorf("diskstore: remove part %d node %d: %w", part, node, err)
	}
	return nil
}

// CorruptAt truncates one replica of a partition to half its size,
// leaving the other replicas intact — the torn-replica injection hook.
func (s *Store) CorruptAt(dataset string, part, node int) error {
	path := s.pathAt(dataset, part, node)
	info, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("%w: %s part %d (node %d)", ErrNotFound, dataset, part, node)
	}
	return os.Truncate(path, info.Size()/2)
}
