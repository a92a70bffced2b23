package metrics

import (
	"math"
	"slices"
	"sync"

	"repro/internal/mathx"
)

// The order statistics of an EP curve are selected in place: an MSD
// radix over each loss's order key (selectKey), which reads the column
// and never writes or copies it.
//
// A first pass counts the keys by their top rootBits bits, and the keys
// of a zero loss. Every asked rank falls in one bucket of that
// histogram; a bucket that holds only zeros (a cat column's lossless
// years) is resolved there, and each other becomes a group, which a
// slot table maps the top digit to. Each further pass reads the column
// once and, for the keys that fall in a live group, either counts their
// next 8 bits (a group of more than gatherLimit keys), or copies the key
// into scratch (a smaller one), where it is sorted and its ranks read
// off. A counted group whose keys all agree (the OR and the AND of its
// keys are equal: a limit many years reach) is resolved from that one
// key without gathering; any other is split into one child group per
// digit that holds an asked rank, reached through the group's own
// 256-entry table. A key that reaches no live group is skipped after a
// table read or two, so a pass costs about one read of the column.
//
// The scratch is bounded, whatever the column's length: the root
// histogram and slot table, and per batch of at most maxBatchRanks ranks
// one histogram per group and the gathered keys of at most gatherLimit
// per group. It is pooled, not allocated per selection.
const (
	rootBitsMax   = 16
	rootBitsMin   = 12
	gatherLimit   = 512
	maxBatchRanks = 64
)

// selectKey is the order key of a loss: mathx.OrderBits, −0 folded onto
// +0, and 0 for a NaN. No number has the key 0 (it would be the pattern
// of a NaN), so NaNs order first, as sort.Float64s puts them.
func selectKey(x float64) uint64 {
	if x != x {
		return 0
	}
	return mathx.OrderBits(x)
}

// zeroKey is the key of +0 and of −0.
const zeroKey uint64 = 1 << 63

// keyValue is the loss a key stands for; key 0, a NaN, is not asked.
func keyValue(key uint64) float64 {
	return math.Float64frombits(key ^ (uint64(int64(^key)>>63) | 1<<63))
}

// group is a range of ranks whose keys share a prefix: count keys, the
// first of rank base, asked ranks ranks[lo:hi].
type group struct {
	base, count int
	lo, hi      int
	shift       uint // the group's digit is byte(key >> shift)
	parent      int  // index of the splitting group, -1 under the root
	digit       int  // the group's digit in its parent's table or the slot table

	child *[256]uint16 // once split: child group index+1 per digit, 0 none
	hist  *[256]uint32 // counting in this pass
	or    uint64
	and   uint64
	keys  []uint64 // gathering in this pass
}

type selector struct {
	root   []uint32 // counts of the root digit
	slot   []uint8  // root digit → root group index+1, 0 none
	groups []group
	hists  []*[256]uint32 // the histograms of a pass, reused
	tables []*[256]uint16 // the split groups' tables, reused
	keys   []uint64       // the gathered keys of a pass
	used   int            // tables in use
}

// selectors holds scratch between selections. A selector's buffers grow
// to what its selections have needed, no further: a quote's short
// column takes 20 KB of root tables, where a million-trial column takes
// 320 KB.
var selectors = sync.Pool{New: func() any { return new(selector) }}

// orderKeys sets keys[j] to the key of rank ranks[j] in the ascending
// order of xs's keys. ranks is ascending, without repeats, each in
// [0, len(xs)).
func orderKeys(xs []float64, ranks []int, keys []uint64) {
	s := selectors.Get().(*selector)
	defer selectors.Put(s)
	for lo := 0; lo < len(ranks); lo += maxBatchRanks {
		hi := min(lo+maxBatchRanks, len(ranks))
		s.run(xs, ranks[lo:hi], keys[lo:hi])
	}
}

// rootBits is the width of the first digit: 2¹⁶ buckets for a column of
// 2¹⁶ keys or more, 2¹² (sign and exponent) for a shorter one, where
// clearing and scanning 2¹⁶ counts would cost more than the column.
func rootBits(n int) uint {
	if n >= 1<<rootBitsMax {
		return rootBitsMax
	}
	return rootBitsMin
}

func (s *selector) run(xs []float64, ranks []int, out []uint64) {
	bits := rootBits(len(xs))
	rootShift := (64 - bits) & 63 // & 63: a shift the compiler need not clamp
	if len(s.root) < 1<<bits {
		s.root, s.slot = make([]uint32, 1<<bits), make([]uint8, 1<<bits)
	}
	root, slot := s.root[:1<<bits], s.slot[:1<<bits]
	clear(root)
	zeros := 0 // keys of a zero loss, counted without a branch
	for _, x := range xs {
		key := selectKey(x)
		root[key>>rootShift]++
		d := key ^ zeroKey
		zeros += int((d|-d)>>63) ^ 1
	}

	// One root group per bucket that holds an asked rank.
	s.groups = s.groups[:0]
	s.used = 0
	clear(slot)
	for _, g := range groupsOf(root, 0, ranks, 0, len(ranks)) {
		if uint64(g.digit) == zeroKey>>rootShift && g.count == zeros {
			// The bucket holds only zero losses, a cat column's
			// lossless years: no pass needs to look at them again.
			for k := g.lo; k < g.hi; k++ {
				out[k] = zeroKey
			}
			continue
		}
		g.parent, g.shift = -1, nextShift(rootShift)
		s.groups = append(s.groups, g)
		slot[g.digit] = uint8(len(s.groups))
	}

	active := make([]int, 0, len(ranks))
	for gi := range s.groups {
		active = append(active, gi)
	}
	for len(active) > 0 {
		s.prepare(active)
		s.scan(xs, slot, rootShift)
		active = s.settle(active, ranks, out)
	}
}

// groupsOf returns a group for each digit of counts that holds one of
// the asked ranks ranks[lo:hi]: the digit's keys, the first of them of
// rank base plus the counts of the digits below, and the ranks among
// them.
func groupsOf(counts []uint32, base int, ranks []int, lo, hi int) []group {
	var gs []group
	end := base
	for d, c := range counts {
		if lo == hi {
			break
		}
		first := end
		end += int(c)
		if ranks[lo] >= end {
			continue
		}
		g := group{base: first, count: int(c), lo: lo, digit: d}
		for lo < hi && ranks[lo] < end {
			lo++
		}
		g.hi = lo
		gs = append(gs, g)
	}
	return gs
}

// nextShift is the shift of the 8-bit digit below one at shift: the
// last digit overlaps the one above it when the widths do not divide,
// which orders the same within a group whose upper bits agree.
func nextShift(shift uint) uint {
	if shift < 8 {
		return 0
	}
	return shift - 8
}

// prepare gives each active group its histogram or its gather space.
func (s *selector) prepare(active []int) {
	gather := 0
	for _, gi := range active {
		if c := s.groups[gi].count; c <= gatherLimit {
			gather += c
		}
	}
	if len(s.keys) < gather {
		s.keys = make([]uint64, gather)
	}
	used, hists := 0, 0
	for _, gi := range active {
		g := &s.groups[gi]
		if g.count <= gatherLimit {
			g.keys = s.keys[used : used : used+g.count]
			used += g.count
			continue
		}
		if hists == len(s.hists) {
			s.hists = append(s.hists, new([256]uint32))
		}
		g.hist = s.hists[hists]
		hists++
		clear(g.hist[:])
		g.or, g.and = 0, ^uint64(0)
	}
}

// scan reads the column once, counting or gathering each key that
// reaches a live group.
func (s *selector) scan(xs []float64, slot []uint8, rootShift uint) {
	groups, rootShift := s.groups, rootShift&63
	for _, x := range xs {
		key := selectKey(x)
		ref := int(slot[key>>rootShift])
		for ref != 0 {
			g := &groups[ref-1]
			digit := byte(key >> g.shift)
			if g.child != nil {
				ref = int(g.child[digit])
				continue
			}
			if g.hist != nil {
				g.hist[digit]++
				g.or |= key
				g.and &= key
			} else {
				g.keys = append(g.keys, key)
			}
			break
		}
	}
}

// settle resolves what the pass settled, splits what it counted, and
// returns the groups the next pass reads.
func (s *selector) settle(active []int, ranks []int, out []uint64) []int {
	var next []int
	for _, gi := range active {
		g := &s.groups[gi]
		switch {
		case g.hist == nil:
			slices.Sort(g.keys)
			for j := g.lo; j < g.hi; j++ {
				out[j] = g.keys[ranks[j]-g.base]
			}
			g.keys = nil
			s.detach(gi)
		case g.or == g.and:
			for j := g.lo; j < g.hi; j++ {
				out[j] = g.or
			}
			g.hist = nil
			s.detach(gi)
		default:
			next = s.split(gi, ranks, next)
		}
	}
	return append(active[:0], next...)
}

// split makes one child group per digit of a counted group that holds
// an asked rank, and appends the children to next.
func (s *selector) split(gi int, ranks []int, next []int) []int {
	if s.used == len(s.tables) {
		s.tables = append(s.tables, new([256]uint16))
	}
	table := s.tables[s.used]
	s.used++
	clear(table[:])
	g := s.groups[gi]
	children := groupsOf(g.hist[:], g.base, ranks, g.lo, g.hi)
	for _, child := range children {
		child.parent, child.shift = gi, nextShift(g.shift)
		s.groups = append(s.groups, child)
		table[child.digit] = uint16(len(s.groups))
		next = append(next, len(s.groups)-1)
	}
	p := &s.groups[gi]
	p.hist, p.child = nil, table
	return next
}

// detach unlinks a resolved group, so that later passes skip its keys.
func (s *selector) detach(gi int) {
	if g := s.groups[gi]; g.parent < 0 {
		s.slot[g.digit] = 0
	} else {
		s.groups[g.parent].child[g.digit] = 0
	}
}
