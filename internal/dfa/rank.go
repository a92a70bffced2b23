package dfa

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"

	"repro/internal/mathx"
	"repro/internal/stream"
)

// rankDigitBits is the widest digit of the rank transform: 2¹⁶ buckets,
// whose per-range counts are 256 KB a range. Under 2²⁰ trials the digit
// is narrower, leaving about 2^rankBucketBits trials a bucket.
const (
	rankDigitBits  = 16
	rankBucketBits = 4
)

// rankSortMax is the largest bucket the rank transform sorts in one
// piece: 2¹⁶ trials, whose 8-byte keys stay in a core's cache. A larger
// bucket is split again on its next digit.
const rankSortMax = 1 << rankDigitBits

// checkRankable refuses a table too long for the rank transform's
// 4-byte trial indices.
func checkRankable(n int) error {
	if uint64(n) > math.MaxUint32 {
		return fmt.Errorf("dfa: %d catastrophe trials, the rank transform takes fewer than 2³²", n)
	}
	return nil
}

// rankTransform returns each trial's rank: rankOf[trial] is the trial's
// position in the stable ascending order of agg. Ties (e.g. many
// zero-loss years) share their rank range by trial order; −0 ties with
// +0.
//
// It is an MSD radix over 4-byte trial indices, keyed by
// mathx.OrderBits(agg[trial]). The digit is the top 16 bits on which
// some two losses differ (fewer under 2²⁰ trials): one OR and one AND of
// the patterns, taken in the first pass, tell which. Each
// stream.Partition range counts its digits reading agg in trial order;
// the offsets are laid out digit-major then range-major; each range
// scatters its trial indices in order. So a bucket holds its trials in
// trial order, and the losses are read in sequence, not gathered.
// Each bucket is then gathered once, by whichever worker takes it: its
// keys are packed with their position in the bucket and sorted in a
// cache-sized buffer, and the ranks are written from there. Sorting by
// (key, position) is the stable order, because positions are trial
// order. A bucket whose keys are all equal is already in order. A
// bucket above rankSortMax is split on its own next digit (rankLarge).
//
// The scratch is the index slice, one count slice per range, and one
// key buffer per worker; the worker count is capped at GOMAXPROCS, so
// none of it grows with the workers asked for.
func rankTransform(ctx context.Context, agg []float64, workers int) (rankOf []uint32, err error) {
	n := len(agg)
	if err := checkRankable(n); err != nil {
		return nil, err
	}
	if procs := runtime.GOMAXPROCS(0); workers <= 0 || workers > procs {
		workers = procs
	}
	runs := stream.Partition(n, workers)
	// notFinite[w] is the first trial of run w whose loss is NaN or ±Inf
	// (NaN has no place in the order, ±Inf makes an enterprise total of
	// ±Inf or NaN), -1 when it has none; kept per run so that the trial
	// named is the lowest one whatever the worker count. ors[w] and
	// ands[w] fold run w's patterns.
	notFinite := make([]int, len(runs))
	ors, ands := make([]uint64, len(runs)), make([]uint64, len(runs))
	err = stream.ForEachRange(ctx, n, workers, func(_ context.Context, r stream.Range, w int) error {
		first, or, and := -1, uint64(0), ^uint64(0)
		for trial, loss := range agg[r.Lo:r.Hi] {
			if first < 0 && (math.IsNaN(loss) || math.IsInf(loss, 0)) {
				first = r.Lo + trial
			}
			p := mathx.OrderBits(loss)
			or |= p
			and &= p
		}
		notFinite[w], ors[w], ands[w] = first, or, and
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, trial := range notFinite {
		if trial >= 0 {
			return nil, fmt.Errorf("dfa: catastrophe loss at trial %d is not finite", trial)
		}
	}
	or, and := uint64(0), ^uint64(0)
	for w := range runs {
		or, and = or|ors[w], and&ands[w]
	}
	// Bits at or above top are the same in every loss and order nothing.
	top := uint(bits.Len64(or ^ and))
	width := min(rankDigitBits, uint(max(bits.Len(uint(n))-rankBucketBits, 1)), top)
	shift := top - width
	buckets := 1 << width
	digit := func(loss float64) int { return int(mathx.OrderBits(loss)>>shift) & (buckets - 1) }

	counts := make([]uint32, len(runs)*buckets)
	err = stream.ForEachRange(ctx, n, workers, func(_ context.Context, r stream.Range, w int) error {
		c := counts[w*buckets : (w+1)*buckets]
		for _, loss := range agg[r.Lo:r.Hi] {
			c[digit(loss)]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Turn the counts into each run's first slot per digit: digits in
	// ascending order, and within a digit the runs in trial order.
	var next uint32
	for d := 0; d < buckets; d++ {
		for w := range runs {
			c := &counts[w*buckets+d]
			*c, next = next, next+*c
		}
	}
	idx := make([]uint32, n)
	err = stream.ForEachRange(ctx, n, workers, func(_ context.Context, r stream.Range, w int) error {
		next := counts[w*buckets : (w+1)*buckets]
		for trial, loss := range agg[r.Lo:r.Hi] {
			d := digit(loss)
			idx[next[d]] = uint32(r.Lo + trial)
			next[d]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The last run's next slots are now the buckets' ends. Deal the
	// buckets out in groups of about an eighth of a worker's share, so
	// that a heavy bucket does not leave the other workers idle.
	ends := counts[(len(runs)-1)*buckets:]
	groups := []int{0} // groups[g] is group g's first digit
	sortLen := 0       // the largest bucket sorted in one piece
	target := max(n/(8*len(runs)), 1)
	for d, lo, size := 0, 0, 0; d < buckets; d++ {
		hi := int(ends[d])
		if hi-lo <= rankSortMax {
			sortLen = max(sortLen, hi-lo)
		}
		if size += hi - lo; size >= target {
			groups, size = append(groups, d+1), 0
		}
		lo = hi
	}
	if groups[len(groups)-1] != buckets {
		groups = append(groups, buckets)
	}

	rankOf = make([]uint32, n)
	var taken atomic.Int64
	err = stream.ForEachRange(ctx, len(runs), len(runs), func(context.Context, stream.Range, int) error {
		r := ranker{agg: agg, idx: idx, rankOf: rankOf, keys: make([]uint64, sortLen)}
		for g := int(taken.Add(1)) - 1; g < len(groups)-1; g = int(taken.Add(1)) - 1 {
			for d := groups[g]; d < groups[g+1]; d++ {
				lo := 0
				if d > 0 {
					lo = int(ends[d-1])
				}
				if hi := int(ends[d]); hi > lo {
					r.rank(lo, hi, shift)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rankOf, nil
}

// ranker is one worker's view of the rank transform's bucket phase.
type ranker struct {
	agg    []float64
	idx    []uint32 // trial indices, bucketed; each bucket in trial order
	rankOf []uint32
	keys   []uint64 // the worker's sort buffer
}

// rank writes the ranks of the trials idx[lo:hi], a bucket in trial
// order whose keys agree on every bit at or above bit above. Below
// that, the bits from the lowest to the highest on which two of its keys
// differ are packed above the key's position in the bucket, so the
// packed words are distinct and sort into the stable order. They fit
// in a word whenever the digit had 16 bits (at most 48 bits left, and
// at most 2¹⁶ trials to number); a bucket whose keys spread wider than
// its positions leave room for is split like a large one.
func (r *ranker) rank(lo, hi int, above uint) {
	m := hi - lo
	if m == 1 {
		r.rankOf[r.idx[lo]] = uint32(lo)
		return
	}
	if m > rankSortMax {
		r.rankLarge(lo, hi, above)
		return
	}
	if len(r.keys) < m { // a sub-bucket of rankLarge's
		r.keys = make([]uint64, rankSortMax)
	}
	low := uint64(1)<<above - 1
	keys := r.keys[:m]
	or, and := uint64(0), ^uint64(0)
	for j, trial := range r.idx[lo:hi] {
		k := mathx.OrderBits(r.agg[trial]) & low
		keys[j] = k
		or |= k
		and &= k
	}
	if or == and {
		r.inOrder(lo, hi)
		return
	}
	drop := uint(bits.TrailingZeros64(or ^ and)) // bits below drop are shared too
	posBits := uint(bits.Len(uint(m - 1)))
	if uint(bits.Len64(or^and))-drop+posBits > 64 {
		r.rankLarge(lo, hi, above)
		return
	}
	for j, k := range keys {
		keys[j] = k>>drop<<posBits | uint64(j)
	}
	slices.Sort(keys)
	pos := uint64(1)<<posBits - 1
	for j, k := range keys {
		r.rankOf[r.idx[lo+int(k&pos)]] = uint32(lo + j)
	}
}

// inOrder ranks a bucket of equal keys: trial order is its order.
func (r *ranker) inOrder(lo, hi int) {
	for j, trial := range r.idx[lo:hi] {
		r.rankOf[trial] = uint32(lo + j)
	}
}

// rankLarge ranks a bucket too large to sort in one piece, or too
// spread to pack: unless its keys are all equal, it counts and stably
// scatters the bucket on the 16 bits below the keys' highest varying
// bit, then ranks each sub-bucket. Its counts and scatter buffer are
// allocated here: it takes a loss column whose digit leaves more than
// 2¹⁶ varying trials together, or a narrow digit over keys that differ
// in nearly every bit.
func (r *ranker) rankLarge(lo, hi int, above uint) {
	low := uint64(1)<<above - 1
	or, and := uint64(0), ^uint64(0)
	for _, trial := range r.idx[lo:hi] {
		k := mathx.OrderBits(r.agg[trial]) & low
		or |= k
		and &= k
	}
	if or == and {
		r.inOrder(lo, hi)
		return
	}
	top := uint(bits.Len64(or ^ and))
	width := min(rankDigitBits, top)
	shift := top - width
	mask := uint64(1)<<width - 1
	next := make([]int, 1<<width+1)
	for _, trial := range r.idx[lo:hi] {
		next[1+int(mathx.OrderBits(r.agg[trial])>>shift&mask)]++
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	// next[d] is sub-bucket d's first slot; after the scatter it is the
	// next sub-bucket's.
	bucket := make([]uint32, hi-lo)
	for _, trial := range r.idx[lo:hi] {
		d := int(mathx.OrderBits(r.agg[trial]) >> shift & mask)
		bucket[next[d]] = trial
		next[d]++
	}
	copy(r.idx[lo:hi], bucket)
	for d, start := 0, 0; d < len(next)-1; d++ {
		if end := next[d]; end > start {
			r.rank(lo+start, lo+end, shift)
			start = end
		}
	}
}
