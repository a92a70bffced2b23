// Package warehouse applies the paper's stage-3 remedy for query-time
// cost: "Owing to the large size of data pre-computation techniques
// such as in parallel data warehousing can be applied" (§II). It
// materializes a data cube over per-contract Year-Loss Tables: every
// group-by over the configured dimensions is combined and summarized
// once, in parallel, so that analyst queries become dictionary
// lookups instead of trial-level scans.
//
// A cube is built one way: a Builder folds streamed per-contract trial
// batches into running cell columns as stage 2 produces them, and
// Finalize summarizes each cell and lets its columns go. A cube holds
// each cell's summary and the per-contract table registry — one table
// per contract, linear in the book — from which RecomputeCell
// re-derives a cell and Replace re-prices a single contract by
// re-folding only the cells it belongs to.
package warehouse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/ylt"
)

// validateDims checks the dimension list itself: non-empty, bounded
// (the cube is 2^d group-bys), and free of duplicates — a repeated
// name would enumerate the same logical subset more than once and
// double-count its members.
func validateDims(dims []string) error {
	if len(dims) == 0 {
		return errors.New("warehouse: no dimensions")
	}
	if len(dims) > 6 {
		return fmt.Errorf("warehouse: %d dimensions would materialize %d group-bys", len(dims), 1<<len(dims))
	}
	seen := make(map[string]bool, len(dims))
	for _, d := range dims {
		if seen[d] {
			return fmt.Errorf("warehouse: duplicate dimension %q", d)
		}
		seen[d] = true
	}
	return nil
}

// validateAttrs checks that every attribute set covers every
// dimension.
func validateAttrs(attrs []map[string]string, dims []string) error {
	for i, a := range attrs {
		for _, d := range dims {
			if _, ok := a[d]; !ok {
				return fmt.Errorf("warehouse: table %d missing dimension %q", i, d)
			}
		}
	}
	return nil
}

// Cell is one materialized group: its member count and pre-computed
// risk summary.
type Cell struct {
	Key     string
	Members int
	Summary *metrics.Summary
}

// Cube is the materialized set of group-bys over the dimensions, with
// the per-contract table registry behind Replace and RecomputeCell.
type Cube struct {
	dims  []string
	cells map[string]*Cell
	// members[key] lists the cell's member contract indices in
	// ascending order — the canonical fold order shared by Builder and
	// Replace, which is what makes the two bit-identical.
	members map[string][]int
	// tables is the per-contract YLT registry backing delta updates:
	// one table per contract (linear in the book), vs duplicating
	// members per cell (each contract appears in 2^dims-ish cells).
	tables  []*ylt.Table
	workers int
}

// keyEscaper makes groupKey injective: the joiners (`,`, `=`) and the
// escape prefix itself are percent-encoded in a single pass, so
// attribute values containing separator characters cannot collide
// with or be parsed as other dimension combinations.
var keyEscaper = strings.NewReplacer("%", "%25", "=", "%3D", ",", "%2C")

// groupKey renders a canonical key for a subset of dimensions.
func groupKey(subset []string, attrs map[string]string) string {
	parts := make([]string, len(subset))
	for i, d := range subset {
		parts[i] = keyEscaper.Replace(d) + "=" + keyEscaper.Replace(attrs[d])
	}
	return strings.Join(parts, ",")
}

// subsets returns every non-empty subset of dims (dims must be small;
// the cube is 2^d groups-by).
func subsets(dims []string) [][]string {
	var out [][]string
	n := len(dims)
	for mask := 1; mask < 1<<n; mask++ {
		var s []string
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s = append(s, dims[i])
			}
		}
		out = append(out, s)
	}
	return out
}

// cellMembers enumerates every cell key and its member contract
// indices (ascending) for the given dimensions and attribute sets.
// Builder derives its cells from this one enumeration and hands the
// member lists to the cube, so a refold adds members in the Builder's
// order.
func cellMembers(dims []string, attrs []map[string]string) (keys []string, members map[string][]int) {
	members = make(map[string][]int)
	for _, subset := range subsets(dims) {
		for i, a := range attrs {
			key := groupKey(subset, a)
			if _, ok := members[key]; !ok {
				keys = append(keys, key)
			}
			members[key] = append(members[key], i)
		}
	}
	return keys, members
}

// combineCell folds the registry tables of one cell's members, in
// member order, into a transient table and summarizes it. Replace and
// RecomputeCell share it, and its fold order is the Builder's, so a
// re-fold is bit-identical to the original build.
func (c *Cube) combineCell(key string) (*Cell, error) {
	idxs := c.members[key]
	tbls := make([]*ylt.Table, len(idxs))
	for i, ci := range idxs {
		tbls[i] = c.tables[ci]
	}
	combined, err := ylt.Combine(key, tbls...)
	if err != nil {
		return nil, fmt.Errorf("warehouse: combining %q: %w", key, err)
	}
	summary, err := metrics.Summarize(combined)
	if err != nil {
		return nil, fmt.Errorf("warehouse: summarizing %q: %w", key, err)
	}
	return &Cell{Key: key, Members: len(idxs), Summary: summary}, nil
}

// refold recomputes the given cells from the registry, in parallel.
func (c *Cube) refold(ctx context.Context, keys []string) error {
	var mu sync.Mutex
	return stream.ForEach(ctx, len(keys), c.workers, func(_ context.Context, i int) error {
		cell, err := c.combineCell(keys[i])
		if err != nil {
			return err
		}
		mu.Lock()
		c.cells[cell.Key] = cell
		mu.Unlock()
		return nil
	})
}

// ErrNoCell is returned by Query when no materialized group matches.
var ErrNoCell = errors.New("warehouse: no such cell")

// ErrStaleTable is returned by Replace when oldYLT does not match the
// registry's current table for the contract — the caller is holding
// an outdated view and folding its delta would corrupt the cube.
var ErrStaleTable = errors.New("warehouse: old table does not match registry")

// Query returns the pre-computed cell for the given dimension filter,
// e.g. {"region": "CoastalPeak", "lob": "property"}. All filter keys
// must be cube dimensions.
func (c *Cube) Query(filter map[string]string) (*Cell, error) {
	key, err := c.filterKey(filter)
	if err != nil {
		return nil, err
	}
	cell, ok := c.cells[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoCell, key)
	}
	return cell, nil
}

// filterKey canonicalizes a dimension filter into a cell key.
func (c *Cube) filterKey(filter map[string]string) (string, error) {
	if len(filter) == 0 {
		return "", errors.New("warehouse: empty filter")
	}
	subset := make([]string, 0, len(filter))
	for _, d := range c.dims {
		if _, ok := filter[d]; ok {
			subset = append(subset, d)
		}
	}
	if len(subset) != len(filter) {
		return "", fmt.Errorf("%w: filter uses non-cube dimensions", ErrNoCell)
	}
	return groupKey(subset, filter), nil
}

// RecomputeCell re-derives a cell's summary from the member registry,
// bypassing the pre-computed summary — the self-check behind the
// serving tier's check=direct mode and the CI smoke diff.
func (c *Cube) RecomputeCell(filter map[string]string) (*metrics.Summary, error) {
	key, err := c.filterKey(filter)
	if err != nil {
		return nil, err
	}
	if _, ok := c.cells[key]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoCell, key)
	}
	cell, err := c.combineCell(key)
	if err != nil {
		return nil, err
	}
	return cell.Summary, nil
}

// Replace swaps one contract's YLT for a re-priced one and updates
// only the cells that contract belongs to, re-folding each from the
// registry in canonical member order — O(cells touched), bit-identical
// to a full rebuild with the new table. Subtract-then-add would be
// neither: float addition is not associative, and the element-wise
// OccMax maximum is not invertible at all. oldYLT must match the
// registry's current table for the contract (pointer or bitwise).
// Replace is not safe to run concurrently with Query on the same cube.
// It returns the number of cells updated.
func (c *Cube) Replace(ctx context.Context, contract int, oldYLT, newYLT *ylt.Table) (int, error) {
	if contract < 0 || contract >= len(c.tables) {
		return 0, fmt.Errorf("warehouse: contract %d out of range [0,%d)", contract, len(c.tables))
	}
	cur := c.tables[contract]
	if oldYLT == nil || !sameBits(cur, oldYLT) {
		return 0, fmt.Errorf("%w: contract %d", ErrStaleTable, contract)
	}
	if newYLT == nil {
		return 0, errors.New("warehouse: nil replacement table")
	}
	if newYLT.NumTrials() != cur.NumTrials() {
		return 0, fmt.Errorf("%w: replacement has %d trials, cube has %d", ylt.ErrTrialMismatch, newYLT.NumTrials(), cur.NumTrials())
	}
	if newYLT.HasOccurrence() != cur.HasOccurrence() {
		return 0, fmt.Errorf("%w: replacement occurrence coverage differs from registry", ylt.ErrOccurrenceMismatch)
	}
	var touched []string
	for key, idxs := range c.members {
		for _, ci := range idxs {
			if ci == contract {
				touched = append(touched, key)
				break
			}
		}
	}
	sort.Strings(touched)
	c.tables[contract] = newYLT
	if err := c.refold(ctx, touched); err != nil {
		// The cube may hold a mix of old and new cells now; restore
		// the registry so the caller can retry or rebuild from it.
		c.tables[contract] = cur
		return 0, err
	}
	return len(touched), nil
}

// sameBits reports whether two tables carry identical loss columns
// (bitwise, so NaN payloads and signed zeros count too).
func sameBits(a, b *ylt.Table) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || len(a.Agg) != len(b.Agg) || len(a.OccMax) != len(b.OccMax) {
		return false
	}
	for i, v := range a.Agg {
		if math.Float64bits(v) != math.Float64bits(b.Agg[i]) {
			return false
		}
	}
	for i, v := range a.OccMax {
		if math.Float64bits(v) != math.Float64bits(b.OccMax[i]) {
			return false
		}
	}
	return true
}

// Contract returns the registry's current YLT for a contract (nil out
// of range). Callers pass it back to Replace as oldYLT.
func (c *Cube) Contract(i int) *ylt.Table {
	if i < 0 || i >= len(c.tables) {
		return nil
	}
	return c.tables[i]
}

// Dims returns a copy of the cube's dimension list.
func (c *Cube) Dims() []string { return append([]string(nil), c.dims...) }

// Cells returns the number of materialized groups.
func (c *Cube) Cells() int { return len(c.cells) }

// SizeBytes returns the encoded footprint of the per-contract
// registry, which is what the cube holds beyond its cell summaries.
func (c *Cube) SizeBytes() int64 {
	var n int64
	for _, t := range c.tables {
		n += t.SizeBytes()
	}
	return n
}

// Keys returns all materialized group keys, sorted (for reports).
func (c *Cube) Keys() []string {
	keys := make([]string, 0, len(c.cells))
	for k := range c.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var (
	defaultRegions = []string{"coastal", "interior", "lakes", "alpine"}
	defaultLobs    = []string{"property", "marine", "energy"}
	defaultPerils  = []string{"wind", "quake"}
)

// DefaultAttrs assigns deterministic synthetic reporting attributes
// (region, lob, peril) to an n-contract book by cycling each
// dimension's values at a different period, so any two dimensions
// jointly spread contracts across their value combinations.
func DefaultAttrs(n int) []map[string]string {
	out := make([]map[string]string, n)
	for i := range out {
		out[i] = map[string]string{
			"region": defaultRegions[i%len(defaultRegions)],
			"lob":    defaultLobs[i%len(defaultLobs)],
			"peril":  defaultPerils[i%len(defaultPerils)],
		}
	}
	return out
}
