// Package rdbms is a deliberately traditional row-store baseline: a
// B+tree-indexed table with page-touch accounting. The paper's claim
// (§II, made twice) is that "traditional database management
// techniques do not fit the requirements of this stage as data needs
// to be scanned over rather than randomly access[ed]" — this package
// exists so experiment E5 can quantify that: aggregating a YELT-scale
// table via indexed point lookups versus one sequential scan.
//
// Page touches stand in for disk I/O: every node visited on a lookup
// is one random page read, while a scan reads each leaf page exactly
// once, sequentially.
package rdbms

import (
	"errors"
	"fmt"
	"sort"
)

// DefaultOrder is the default B+tree fan-out (max children per inner
// node and max keys per leaf) — sized like a 4 KB page of key/pointer
// pairs.
const DefaultOrder = 64

// ErrWidthMismatch is returned when a row's value count differs from
// the table's column width.
var ErrWidthMismatch = errors.New("rdbms: row width mismatch")

// Stats counts page touches, the disk-I/O proxy.
type Stats struct {
	PageReads  uint64
	PageWrites uint64
}

type leafNode struct {
	keys []uint64
	vals []float64 // len(keys)*width, row-major
	next *leafNode
}

type innerNode struct {
	keys     []uint64 // separators; len == len(children)-1
	children []any    // *innerNode or *leafNode
}

// Table is a B+tree-indexed row store with uint64 primary keys and a
// fixed number of float64 columns.
type Table struct {
	width  int
	order  int
	root   any
	height int
	rows   int
	stats  Stats
}

// New returns an empty table with the given column width and fan-out
// (order <= 0 uses DefaultOrder).
func New(width, order int) (*Table, error) {
	if width <= 0 {
		return nil, fmt.Errorf("rdbms: width %d", width)
	}
	if order <= 0 {
		order = DefaultOrder
	}
	if order < 3 {
		return nil, fmt.Errorf("rdbms: order %d too small", order)
	}
	return &Table{width: width, order: order, root: &leafNode{}, height: 1}, nil
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.rows }

// Height returns the tree height (1 = just a leaf).
func (t *Table) Height() int { return t.height }

// Stats returns the page-touch counters.
func (t *Table) Stats() Stats { return t.stats }

// ResetStats zeroes the counters.
func (t *Table) ResetStats() { t.stats = Stats{} }

// Insert adds or overwrites the row for key.
func (t *Table) Insert(key uint64, vals []float64) error {
	if len(vals) != t.width {
		return fmt.Errorf("%w: got %d, want %d", ErrWidthMismatch, len(vals), t.width)
	}
	sep, right, grew, added := t.insert(t.root, key, vals)
	if added {
		t.rows++
	}
	if grew {
		t.root = &innerNode{keys: []uint64{sep}, children: []any{t.root, right}}
		t.height++
	}
	return nil
}

func (t *Table) insert(n any, key uint64, vals []float64) (sep uint64, right any, grew, added bool) {
	t.stats.PageWrites++
	switch node := n.(type) {
	case *leafNode:
		pos := sort.Search(len(node.keys), func(i int) bool { return node.keys[i] >= key })
		if pos < len(node.keys) && node.keys[pos] == key {
			copy(node.vals[pos*t.width:(pos+1)*t.width], vals)
			return 0, nil, false, false
		}
		node.keys = append(node.keys, 0)
		copy(node.keys[pos+1:], node.keys[pos:])
		node.keys[pos] = key
		node.vals = append(node.vals, make([]float64, t.width)...)
		copy(node.vals[(pos+1)*t.width:], node.vals[pos*t.width:len(node.vals)-t.width])
		copy(node.vals[pos*t.width:(pos+1)*t.width], vals)
		if len(node.keys) <= t.order {
			return 0, nil, false, true
		}
		// Split.
		mid := len(node.keys) / 2
		r := &leafNode{
			keys: append([]uint64(nil), node.keys[mid:]...),
			vals: append([]float64(nil), node.vals[mid*t.width:]...),
			next: node.next,
		}
		node.keys = node.keys[:mid]
		node.vals = node.vals[:mid*t.width]
		node.next = r
		return r.keys[0], r, true, true

	case *innerNode:
		idx := sort.Search(len(node.keys), func(i int) bool { return key < node.keys[i] })
		csep, cright, cgrew, cadded := t.insert(node.children[idx], key, vals)
		if !cgrew {
			return 0, nil, false, cadded
		}
		node.keys = append(node.keys, 0)
		copy(node.keys[idx+1:], node.keys[idx:])
		node.keys[idx] = csep
		node.children = append(node.children, nil)
		copy(node.children[idx+2:], node.children[idx+1:])
		node.children[idx+1] = cright
		if len(node.children) <= t.order {
			return 0, nil, false, cadded
		}
		// Split inner: middle separator moves up.
		midKey := len(node.keys) / 2
		up := node.keys[midKey]
		r := &innerNode{
			keys:     append([]uint64(nil), node.keys[midKey+1:]...),
			children: append([]any(nil), node.children[midKey+1:]...),
		}
		node.keys = node.keys[:midKey]
		node.children = node.children[:midKey+1]
		return up, r, true, cadded

	default:
		panic("rdbms: unknown node type")
	}
}

// Get returns the row for key via index traversal — the random-access
// path. Every node on the way down is one page read.
func (t *Table) Get(key uint64) ([]float64, bool) {
	n := t.root
	for {
		t.stats.PageReads++
		switch node := n.(type) {
		case *leafNode:
			pos := sort.Search(len(node.keys), func(i int) bool { return node.keys[i] >= key })
			if pos < len(node.keys) && node.keys[pos] == key {
				return node.vals[pos*t.width : (pos+1)*t.width], true
			}
			return nil, false
		case *innerNode:
			idx := sort.Search(len(node.keys), func(i int) bool { return key < node.keys[i] })
			n = node.children[idx]
		default:
			panic("rdbms: unknown node type")
		}
	}
}

// Scan streams all rows in key order through fn — the sequential path.
// Each leaf is one (sequential) page read.
func (t *Table) Scan(fn func(key uint64, vals []float64) error) error {
	leaf := t.leftmost()
	for leaf != nil {
		t.stats.PageReads++
		for i, k := range leaf.keys {
			if err := fn(k, leaf.vals[i*t.width:(i+1)*t.width]); err != nil {
				return err
			}
		}
		leaf = leaf.next
	}
	return nil
}

func (t *Table) leftmost() *leafNode {
	n := t.root
	for {
		switch node := n.(type) {
		case *leafNode:
			return node
		case *innerNode:
			n = node.children[0]
		}
	}
}
