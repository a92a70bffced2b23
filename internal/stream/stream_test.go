package stream

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPartitionCoversExactly(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw%5000) + 1
		parts := int(pRaw%64) + 1
		rs := Partition(n, parts)
		if len(rs) == 0 {
			return false
		}
		// Contiguous, non-empty, covering [0, n).
		if rs[0].Lo != 0 || rs[len(rs)-1].Hi != n {
			return false
		}
		for i, r := range rs {
			if r.Len() <= 0 {
				return false
			}
			if i > 0 && rs[i-1].Hi != r.Lo {
				return false
			}
		}
		// Balanced: sizes differ by at most 1.
		lo, hi := rs[0].Len(), rs[0].Len()
		for _, r := range rs {
			if r.Len() < lo {
				lo = r.Len()
			}
			if r.Len() > hi {
				hi = r.Len()
			}
		}
		return hi-lo <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPartitionEdge(t *testing.T) {
	if Partition(0, 4) != nil {
		t.Error("n=0 should return nil")
	}
	if Partition(4, 0) != nil {
		t.Error("parts=0 should return nil")
	}
	rs := Partition(3, 10)
	if len(rs) != 3 {
		t.Errorf("expected 3 singleton ranges, got %v", rs)
	}
}

func TestChunksCoverExactly(t *testing.T) {
	rs := Chunks(10, 3)
	want := []Range{{0, 3}, {3, 6}, {6, 9}, {9, 10}}
	if len(rs) != len(want) {
		t.Fatalf("got %v", rs)
	}
	for i := range want {
		if rs[i] != want[i] {
			t.Fatalf("chunk %d = %v, want %v", i, rs[i], want[i])
		}
	}
	if Chunks(0, 3) != nil || Chunks(3, 0) != nil {
		t.Error("degenerate chunks should be nil")
	}
}

func TestForEachVisitsAllOnce(t *testing.T) {
	const n = 1000
	visited := make([]int32, n)
	err := ForEach(context.Background(), n, 8, func(_ context.Context, i int) error {
		atomic.AddInt32(&visited[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range visited {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

func TestForEachPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := ForEach(context.Background(), 1000, 4, func(_ context.Context, i int) error {
		if i == 137 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestForEachRespectsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := ForEach(ctx, 100000, 4, func(_ context.Context, i int) error {
		ran.Add(1)
		return nil
	})
	if err == nil {
		t.Fatal("expected context error")
	}
	if int(ran.Load()) > 10000 {
		t.Fatalf("cancelled run still executed %d items", ran.Load())
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForEachRangeCoverage(t *testing.T) {
	const n = 777
	visited := make([]int32, n)
	err := ForEachRange(context.Background(), n, 5, func(_ context.Context, r Range, w int) error {
		for i := r.Lo; i < r.Hi; i++ {
			atomic.AddInt32(&visited[i], 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range visited {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

func TestForEachRangeError(t *testing.T) {
	boom := errors.New("range boom")
	err := ForEachRange(context.Background(), 100, 4, func(_ context.Context, r Range, w int) error {
		if w == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestMapReduceLocalSum(t *testing.T) {
	type acc struct{ sum int64 }
	got, err := MapReduceLocal(context.Background(), 1000, 7,
		func() *acc { return &acc{} },
		func(_ context.Context, r Range, a *acc) error {
			for i := r.Lo; i < r.Hi; i++ {
				a.sum += int64(i)
			}
			return nil
		},
		func(into, from *acc) { into.sum += from.sum },
	)
	if err != nil {
		t.Fatal(err)
	}
	if got.sum != 499500 {
		t.Fatalf("sum = %d, want 499500", got.sum)
	}
}

func TestMapReduceLocalMatchesSequentialProperty(t *testing.T) {
	f := func(nRaw uint16, wRaw uint8) bool {
		n := int(nRaw % 2000)
		workers := int(wRaw%16) + 1
		type acc struct{ v uint64 }
		got, err := MapReduceLocal(context.Background(), n, workers,
			func() *acc { return &acc{} },
			func(_ context.Context, r Range, a *acc) error {
				for i := r.Lo; i < r.Hi; i++ {
					a.v += uint64(i)*2654435761 + 1
				}
				return nil
			},
			func(into, from *acc) { into.v += from.v },
		)
		if err != nil {
			return false
		}
		var want uint64
		for i := 0; i < n; i++ {
			want += uint64(i)*2654435761 + 1
		}
		return got.v == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMapReduceLocalError(t *testing.T) {
	boom := errors.New("mr boom")
	_, err := MapReduceLocal(context.Background(), 100, 4,
		func() *int { v := 0; return &v },
		func(_ context.Context, r Range, a *int) error { return boom },
		func(into, from *int) {},
	)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}
