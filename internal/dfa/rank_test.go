package dfa

import (
	"cmp"
	"context"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// sortFuncRanks is the rank order by a comparison sort that shares no
// code with rankTransform: slices.SortFunc over (loss, trial) pairs,
// which is the stable ascending order of the losses, −0 tying with +0.
func sortFuncRanks(agg []float64) (rankOf []uint32) {
	type pair struct {
		loss  float64
		trial int
	}
	pairs := make([]pair, len(agg))
	for trial, loss := range agg {
		pairs[trial] = pair{loss, trial}
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		switch {
		case a.loss < b.loss:
			return -1
		case a.loss > b.loss:
			return 1
		}
		return cmp.Compare(a.trial, b.trial)
	})
	rankOf = make([]uint32, len(agg))
	for rank, p := range pairs {
		rankOf[p.trial] = uint32(rank)
	}
	return rankOf
}

// checkRankOrder holds rankTransform to sortFuncRanks at the given
// worker counts.
func checkRankOrder(t *testing.T, name string, agg []float64, workers ...int) {
	t.Helper()
	wantRank := sortFuncRanks(agg)
	for _, w := range workers {
		rankOf, err := rankTransform(context.Background(), agg, w)
		if err != nil {
			t.Fatalf("%s, workers=%d: %v", name, w, err)
		}
		for trial := range rankOf {
			if rankOf[trial] != wantRank[trial] {
				t.Fatalf("%s (n=%d), workers=%d: trial %d (loss %v) ranks %d, slices.SortFunc ranks it %d",
					name, len(agg), w, trial, agg[trial], rankOf[trial], wantRank[trial])
			}
		}
	}
}

func TestRankOrderMatchesSortFunc(t *testing.T) {
	negZero := math.Copysign(0, -1)
	tiny := math.SmallestNonzeroFloat64
	cases := []struct {
		name string
		agg  []float64
	}{
		{"tied", catTable(5003, 21).Agg},
		{"distinct", distinctTable(4099, 22).Agg},
		{"all equal", equalTable(513).Agg},
		{"n=1", []float64{3.5}},
		{"n=2 descending", []float64{2, 1}},
		{"n=2 ±0", []float64{0, negZero}},
		{"negative", []float64{-1, -3, -2, -1e300, -1, -0.5, -3, -1e-300}},
		{"±0 mixes", []float64{0, negZero, -1, negZero, 0, 1, 0, negZero, negZero, 0}},
		{"subnormals and huge values", []float64{
			tiny, -tiny, 2 * tiny, math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, -0x1p-1022,
			tiny, negZero, 0x1p-1022 - tiny, 1e308, -1e308, 0, math.MaxFloat64, 1,
		}},
	}
	// n = 257 with one byte of each pattern shared and the rest varied:
	// a pass skipped wrongly, or bytes visited in the wrong order, shows.
	mixed := make([]float64, 257)
	for i := range mixed {
		bits := uint64(0x40f0_0000_0000_0000) | uint64(i*7919%257)<<(8*(i%6)) | uint64(i%3)
		mixed[i] = math.Float64frombits(bits)
		if i%5 == 0 {
			mixed[i] = -mixed[i]
		}
	}
	cases = append(cases, struct {
		name string
		agg  []float64
	}{"n=257 mixed bytes", mixed})
	for _, c := range cases {
		n := len(c.agg)
		checkRankOrder(t, c.name, c.agg, 1, 2, 3, 7, n+1)
	}
}

// FuzzRankOrder holds the index radix to slices.SortFunc over finite
// losses from arbitrary bit patterns: eight bytes a loss, the first byte
// the worker count. A NaN or ±Inf pattern is cleared to its sign bit, a
// signed zero.
func FuzzRankOrder(f *testing.F) {
	enc := func(workers byte, losses ...float64) []byte {
		b := []byte{workers}
		for _, v := range losses {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(enc(1, 1, 2, 3))
	f.Add(enc(3, 0, math.Copysign(0, -1), -1, 0, 5, 5, math.Copysign(0, -1)))
	f.Add(enc(2, math.SmallestNonzeroFloat64, -math.MaxFloat64, math.MaxFloat64, -1e-310, 7, 7, 7))
	f.Add(enc(7, -2, -2, -3, 1e9, 1e9+1, 0.1, 0.1, -0.1))
	// The MSD radix's shapes: one dominant bucket of tied lossless years
	// (70 % of 100 000, past rankSortMax); ±0 mixed with the smallest
	// losses of either sign; negative losses only; a bucket of varying
	// keys past rankSortMax, whose top 16 varying bits one outlier leaves
	// shared by 70 000 losses; fewer trials than one digit's 2¹⁶ buckets,
	// with keys that differ in every byte; and more workers than trials.
	lossless := catTable(100_000, 5).Agg
	f.Add(enc(2, lossless...))
	negZero := math.Copysign(0, -1)
	f.Add(enc(4, 0, negZero, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, negZero, 0, 0x1p-1022, negZero, -0x1p-1022, 0))
	negative := distinctTable(600, 6).Agg
	for i := range negative {
		negative[i] *= -float64(1 + i%3)
	}
	f.Add(enc(3, negative...))
	large := make([]float64, 70_001)
	for i := range large {
		large[i] = 1 + float64(i*7919%70_000/3)*0x1p-40
	}
	large[12_345] = 1e300
	f.Add(enc(2, large...))
	f.Add(enc(1, 1e-300, -1e300, 3, math.MaxFloat64, -7, 0x1p-1074))
	f.Add(enc(8, 5, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		workers := 1 + int(data[0]%9)
		agg := make([]float64, (len(data)-1)/8)
		for i := range agg {
			bits := binary.LittleEndian.Uint64(data[1+8*i:])
			if bits&0x7ff0_0000_0000_0000 == 0x7ff0_0000_0000_0000 {
				bits &= 1 << 63
			}
			agg[i] = math.Float64frombits(bits)
		}
		checkRankOrder(t, "fuzz", agg, workers)
	})
}

// A table of 2³² trials or more does not fit the rank transform's
// 4-byte indices, and is refused before anything is allocated.
func TestRankableRefusesLongTables(t *testing.T) {
	if math.MaxInt < math.MaxUint32 {
		t.Skip("a 32-bit int cannot count 2³² trials")
	}
	// uint64 here, so that the file compiles where int has 32 bits.
	for _, n := range []uint64{0, 1, math.MaxUint32} {
		if err := checkRankable(int(n)); err != nil {
			t.Errorf("%d trials refused: %v", n, err)
		}
	}
	for _, n := range []uint64{math.MaxUint32 + 1, math.MaxInt64} {
		if err := checkRankable(int(n)); err == nil || !strings.Contains(err.Error(), "fewer than 2³²") {
			t.Errorf("%d trials: error %v", n, err)
		}
	}
}

// The rank transform's scratch does not grow with the workers asked
// for: its per-range counts and key buffers are bounded by GOMAXPROCS,
// so at workers = n+1 it allocates the index and rank slices and at most
// one digit's counts and one sort buffer a processor.
func TestRankTransformAllocationIgnoresWorkers(t *testing.T) {
	const n = 50_000
	agg := distinctTable(n, 9).Agg
	procs := runtime.GOMAXPROCS(0)
	limit := uint64(8*n + procs*(4<<rankDigitBits+8*rankSortMax) + 64<<10)
	for _, workers := range []int{1, procs, n + 1} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := rankTransform(context.Background(), agg, workers); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("workers=%d: the rank allocated %d bytes over %d trials, want at most %d", workers, got, n, limit)
		}
	}
}
