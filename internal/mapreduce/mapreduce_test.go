package mapreduce

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func sumReduce(_ uint64, vs []float64) (float64, error) {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s, nil
}

func TestWordCountStyleSum(t *testing.T) {
	// Splits are integer ranges; map emits (i%10, i).
	splits := []int{0, 1, 2, 3}
	mapf := func(_ context.Context, split int, emit func(uint64, float64)) error {
		for i := split * 250; i < (split+1)*250; i++ {
			emit(uint64(i%10), float64(i))
		}
		return nil
	}
	got, err := Run(context.Background(), splits, mapf, sumReduce, sumReduce, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("keys = %d", len(got))
	}
	// Reference computation.
	want := map[uint64]float64{}
	for i := 0; i < 1000; i++ {
		want[uint64(i%10)] += float64(i)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: %v, want %v", k, got[k], v)
		}
	}
}

func TestDeterministicAcrossConfigs(t *testing.T) {
	mapf := func(_ context.Context, split int, emit func(uint64, float64)) error {
		for i := 0; i < 500; i++ {
			emit(uint64((split*7+i)%31), float64(i)*1.5)
		}
		return nil
	}
	splits := []int{0, 1, 2, 3, 4, 5, 6, 7}
	base, err := Run(context.Background(), splits, mapf, nil, sumReduce, Config{Mappers: 1, Reducers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Mappers: 4, Reducers: 2},
		{Mappers: 8, Reducers: 8},
		{Mappers: 2, Reducers: 5, MaxAttempts: 3},
	} {
		got, err := Run(context.Background(), splits, mapf, sumReduce, sumReduce, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(base) {
			t.Fatalf("cfg %+v: key count %d vs %d", cfg, len(got), len(base))
		}
		for k, v := range base {
			if d := got[k] - v; d > 1e-9 || d < -1e-9 {
				t.Fatalf("cfg %+v key %d: %v vs %v", cfg, k, got[k], v)
			}
		}
	}
}

func TestCombinerEquivalenceProperty(t *testing.T) {
	f := func(data []uint16) bool {
		splits := [][]uint16{data}
		if len(data) > 4 {
			mid := len(data) / 2
			splits = [][]uint16{data[:mid], data[mid:]}
		}
		mapf := func(_ context.Context, split []uint16, emit func(uint64, float64)) error {
			for _, v := range split {
				emit(uint64(v%13), float64(v))
			}
			return nil
		}
		with, err1 := Run(context.Background(), splits, mapf, sumReduce, sumReduce, Config{Reducers: 3})
		without, err2 := Run(context.Background(), splits, mapf, nil, sumReduce, Config{Reducers: 3})
		if err1 != nil || err2 != nil {
			return false
		}
		if len(with) != len(without) {
			return false
		}
		for k, v := range with {
			d := without[k] - v
			if d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMapFailureRetried(t *testing.T) {
	var attempts atomic.Int32
	mapf := func(_ context.Context, split int, emit func(uint64, float64)) error {
		if split == 1 && attempts.Add(1) < 3 {
			return errors.New("transient")
		}
		emit(uint64(split), 1)
		return nil
	}
	got, err := Run(context.Background(), []int{0, 1, 2}, mapf, nil, sumReduce, Config{MaxAttempts: 3, Mappers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != 1 {
		t.Fatalf("retried split result = %v", got[1])
	}
	if attempts.Load() != 3 {
		t.Fatalf("attempts = %d, want 3", attempts.Load())
	}
}

func TestMapFailureExhaustsAttempts(t *testing.T) {
	mapf := func(_ context.Context, split int, emit func(uint64, float64)) error {
		return errors.New("permanent")
	}
	_, err := Run(context.Background(), []int{0}, mapf, nil, sumReduce, Config{MaxAttempts: 2})
	if !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("err = %v, want ErrTooManyFailures", err)
	}
}

func TestFailedAttemptEmissionsDiscarded(t *testing.T) {
	// A map task that emits then fails must not leak its emissions.
	var first atomic.Bool
	mapf := func(_ context.Context, split int, emit func(uint64, float64)) error {
		emit(7, 100)
		if first.CompareAndSwap(false, true) {
			return errors.New("fail after emitting")
		}
		return nil
	}
	got, err := Run(context.Background(), []int{0}, mapf, nil, sumReduce, Config{MaxAttempts: 2, Mappers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[7] != 100 {
		t.Fatalf("key 7 = %v, want 100 (single successful attempt)", got[7])
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	mapf := func(_ context.Context, split int, emit func(uint64, float64)) error {
		emit(1, 1)
		return nil
	}
	boom := errors.New("reduce boom")
	_, err := Run(context.Background(), []int{0}, mapf, nil,
		func(uint64, []float64) (float64, error) { return 0, boom }, Config{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestCombineErrorPropagates(t *testing.T) {
	mapf := func(_ context.Context, split int, emit func(uint64, float64)) error {
		emit(1, 1)
		emit(1, 2)
		return nil
	}
	boom := errors.New("combine boom")
	_, err := Run(context.Background(), []int{0}, mapf,
		func(uint64, []float64) (float64, error) { return 0, boom },
		sumReduce, Config{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptySplits(t *testing.T) {
	got, err := Run(context.Background(), nil,
		func(_ context.Context, _ int, _ func(uint64, float64)) error { return nil },
		nil, sumReduce, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("no splits should yield no keys")
	}
}

func TestNilFuncsRejected(t *testing.T) {
	if _, err := Run[int, uint64, float64](context.Background(), []int{1}, nil, nil, sumReduce, Config{}); err == nil {
		t.Fatal("nil map should error")
	}
	mapf := func(_ context.Context, _ int, _ func(uint64, float64)) error { return nil }
	if _, err := Run[int, uint64, float64](context.Background(), []int{1}, mapf, nil, nil, Config{}); err == nil {
		t.Fatal("nil reduce should error")
	}
}

func TestStringKeys(t *testing.T) {
	mapf := func(_ context.Context, split int, emit func(string, float64)) error {
		emit("alpha", 1)
		emit("beta", 2)
		return nil
	}
	red := func(_ string, vs []float64) (float64, error) {
		var s float64
		for _, v := range vs {
			s += v
		}
		return s, nil
	}
	got, err := Run(context.Background(), []int{0, 1, 2}, mapf, red, red, Config{Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got["alpha"] != 3 || got["beta"] != 6 {
		t.Fatalf("got %v", got)
	}
}

// A job cancelled mid-flight — after some map tasks have already
// succeeded — must stop promptly with the context error, and the
// cancelled mapper must NOT be retried: retries are for transient task
// failures, not for the job being torn down.
func TestMidJobCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started, retries atomic.Int32
	mapf := func(ctx context.Context, split int, emit func(uint64, float64)) error {
		n := started.Add(1)
		if n > 3 {
			retries.Add(1) // any attempt after the cancelling one is a retry or a straggler
		}
		if n == 3 {
			cancel() // third task cancels the job partway through
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		emit(uint64(split), 1)
		return nil
	}
	_, err := Run(ctx, []int{0, 1, 2, 3, 4, 5, 6, 7}, mapf, nil, sumReduce,
		Config{Mappers: 1, MaxAttempts: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if retries.Load() != 0 {
		t.Fatalf("cancelled mapper was retried %d times; cancellation must not burn attempts", retries.Load())
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mapf := func(_ context.Context, split int, emit func(uint64, float64)) error {
		emit(1, 1)
		return nil
	}
	if _, err := Run(ctx, make([]int, 10000), mapf, nil, sumReduce, Config{}); err == nil {
		t.Fatal("cancelled job should error")
	}
}

// Deterministic unit coverage of the lane scheduler itself: affine
// pops drain the home lane in FIFO order, steals come from the
// most-loaded foreign lane, and blind mode is one global FIFO.
func TestLaneSchedulerAffineOrder(t *testing.T) {
	// 7 splits on 3 nodes, nodeOf = i % 3: lanes {0,3,6}, {1,4}, {2,5}.
	s := newLaneScheduler(7, 3, func(i int) int { return i % 3 })
	for _, want := range []int{0, 3, 6} {
		got, ok := s.next(0)
		if !ok || got != want {
			t.Fatalf("home-lane pop = %d,%v; want %d", got, ok, want)
		}
	}
	// Lane 0 dry: the next pop for home 0 steals from lane 1 or 2 (both
	// hold 2) — the scheduler picks the first longest, lane 1's head.
	got, ok := s.next(0)
	if !ok || got != 1 {
		t.Fatalf("steal = %d,%v; want 1 (head of most-loaded lane)", got, ok)
	}
	// Now lane 2 (2 left) is strictly longer than lane 1 (1 left).
	if got, _ := s.next(0); got != 2 {
		t.Fatalf("second steal = %d, want 2", got)
	}
	// Home-lane preference still applies for other homes.
	if got, _ := s.next(1); got != 4 {
		t.Fatalf("home-1 pop = %d, want 4", got)
	}
	if got, _ := s.next(2); got != 5 {
		t.Fatalf("home-2 pop = %d, want 5", got)
	}
	if _, ok := s.next(0); ok {
		t.Fatal("drained scheduler handed out work")
	}
}

// Locality-aware runs must stay bit-equivalent to placement-free runs
// (placement only reorders scheduling, never values), every split must
// be mapped exactly once, and local+remote accounting must cover every
// task.
func TestLocalityEquivalenceAndAccounting(t *testing.T) {
	mapf := func(_ context.Context, split int, emit func(uint64, float64)) error {
		for i := 0; i < 200; i++ {
			emit(uint64((split*11+i)%17), float64(split*1000+i))
		}
		return nil
	}
	splits := make([]int, 24)
	for i := range splits {
		splits[i] = i
	}
	base, err := Run(context.Background(), splits, mapf, nil, sumReduce, Config{Mappers: 1, Reducers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var local, remote, tasks atomic.Int64
	cfg := Config{
		Mappers: 6, Reducers: 3,
		Nodes:  4,
		NodeOf: func(i int) int { return i % 4 },
		OnTask: func(split int, isLocal bool, _ time.Duration) {
			tasks.Add(1)
			if isLocal {
				local.Add(1)
			} else {
				remote.Add(1)
			}
		},
	}
	got, err := Run(context.Background(), splits, mapf, sumReduce, sumReduce, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(base) {
		t.Fatalf("key count %d vs %d", len(got), len(base))
	}
	for k, v := range base {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Fatalf("key %d: %v vs %v", k, got[k], v)
		}
	}
	if tasks.Load() != int64(len(splits)) {
		t.Fatalf("OnTask fired %d times for %d splits", tasks.Load(), len(splits))
	}
	if local.Load()+remote.Load() != int64(len(splits)) {
		t.Fatalf("local %d + remote %d != %d", local.Load(), remote.Load(), len(splits))
	}
}

// A single worker homed on node 0 drains its own lane before touching
// any other: the first lane-0-sized prefix of its tasks must all be
// local, the rest remote — deterministic because there is no second
// worker to race.
func TestSingleWorkerDrainsHomeLaneFirst(t *testing.T) {
	type placed struct {
		split int
		local bool
	}
	var order []placed
	mapf := func(_ context.Context, split int, emit func(uint64, float64)) error {
		emit(0, 1)
		return nil
	}
	cfg := Config{
		Mappers: 1, Reducers: 1,
		Nodes:  3,
		NodeOf: func(i int) int { return i % 3 },
		OnTask: func(split int, local bool, _ time.Duration) {
			order = append(order, placed{split, local}) // Mappers=1: no races
		},
	}
	if _, err := Run(context.Background(), make([]int, 9), mapf, nil, sumReduce, cfg); err != nil {
		t.Fatal(err)
	}
	if len(order) != 9 {
		t.Fatalf("tasks = %d", len(order))
	}
	for i, p := range order {
		wantLocal := i < 3 // lane 0 holds splits 0,3,6
		if p.local != wantLocal {
			t.Fatalf("task %d (split %d): local=%v, want %v", i, p.split, p.local, wantLocal)
		}
		if wantLocal && p.split%3 != 0 {
			t.Fatalf("task %d drew split %d before lane 0 drained", i, p.split)
		}
	}
}

func TestNodesWithoutNodeOfRejected(t *testing.T) {
	mapf := func(_ context.Context, _ int, emit func(uint64, float64)) error {
		emit(0, 1)
		return nil
	}
	if _, err := Run(context.Background(), []int{0}, mapf, nil, sumReduce, Config{Nodes: 2}); err == nil {
		t.Fatal("Nodes without NodeOf should error")
	}
}

// Retries must survive lane scheduling: a transiently failing split on
// a foreign lane still completes, and placement accounting fires once.
func TestLaneRetryStillBounded(t *testing.T) {
	var attempts atomic.Int32
	mapf := func(_ context.Context, split int, emit func(uint64, float64)) error {
		if split == 2 && attempts.Add(1) < 2 {
			return errors.New("transient")
		}
		emit(uint64(split), 1)
		return nil
	}
	var tasks atomic.Int32
	cfg := Config{
		Mappers: 2, MaxAttempts: 3,
		Nodes:  2,
		NodeOf: func(i int) int { return i % 2 },
		OnTask: func(int, bool, time.Duration) { tasks.Add(1) },
	}
	got, err := Run(context.Background(), []int{0, 1, 2, 3}, mapf, nil, sumReduce, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != 1 {
		t.Fatalf("retried split result = %v", got[2])
	}
	if tasks.Load() != 4 {
		t.Fatalf("OnTask fired %d times, want 4 (once per split, not per attempt)", tasks.Load())
	}
}

// Cancellation propagates through the lane pool exactly as through the
// placement-free path.
func TestLaneCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mapf := func(_ context.Context, _ int, emit func(uint64, float64)) error {
		emit(1, 1)
		return nil
	}
	cfg := Config{Nodes: 3, NodeOf: func(i int) int { return i % 3 }}
	if _, err := Run(ctx, make([]int, 1000), mapf, nil, sumReduce, cfg); err == nil {
		t.Fatal("cancelled lane job should error")
	}
}
