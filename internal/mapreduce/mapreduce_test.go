package mapreduce

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// kv is one keyed value a test map task returns; sumJob adds the
// values up per key at commit.
type kv struct {
	k uint64
	v float64
}

// commitRec is one commit as the job delivered it.
type commitRec struct {
	split int
	local bool
	busy  time.Duration
}

// sumJob runs mapf over splits and commits each split's pairs into
// per-key sums. It returns the sums and the commits in the order they
// happened.
func sumJob[S any](ctx context.Context, splits []S, mapf func(context.Context, S) ([]kv, error), cfg Config) (map[uint64]float64, []commitRec, error) {
	var mu sync.Mutex
	sums := map[uint64]float64{}
	var log []commitRec
	err := Run(ctx, splits, mapf, func(split int, pairs []kv, local bool, busy time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range pairs {
			sums[p.k] += p.v
		}
		log = append(log, commitRec{split, local, busy})
	}, cfg)
	return sums, log, err
}

// onceEach fails the test unless every one of n splits committed
// exactly once.
func onceEach(t *testing.T, log []commitRec, n int) {
	t.Helper()
	seen := make([]int, n)
	for _, c := range log {
		seen[c.split]++
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("split %d committed %d times, want 1", i, c)
		}
	}
}

func sameSums(t *testing.T, what string, got, want map[uint64]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: key count %d vs %d", what, len(got), len(want))
	}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Fatalf("%s: key %d: %v vs %v", what, k, got[k], v)
		}
	}
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func TestWordCountStyleSum(t *testing.T) {
	// Splits are integer ranges; map returns (i%10, i).
	mapf := func(_ context.Context, split int) ([]kv, error) {
		var out []kv
		for i := split * 250; i < (split+1)*250; i++ {
			out = append(out, kv{uint64(i % 10), float64(i)})
		}
		return out, nil
	}
	got, log, err := sumJob(context.Background(), seq(4), mapf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	onceEach(t, log, 4)
	want := map[uint64]float64{}
	for i := 0; i < 1000; i++ {
		want[uint64(i%10)] += float64(i)
	}
	sameSums(t, "sum", got, want)
}

func TestDeterministicAcrossConfigs(t *testing.T) {
	mapf := func(_ context.Context, split int) ([]kv, error) {
		var out []kv
		for i := 0; i < 500; i++ {
			out = append(out, kv{uint64((split*7 + i) % 31), float64(i) * 1.5})
		}
		return out, nil
	}
	splits := seq(8)
	base, _, err := sumJob(context.Background(), splits, mapf, Config{Mappers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Mappers: 4},
		{Mappers: 8},
		{Mappers: 2, MaxAttempts: 3},
	} {
		got, log, err := sumJob(context.Background(), splits, mapf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		onceEach(t, log, len(splits))
		sameSums(t, "config", got, base)
	}
}

func TestMapFailureRetried(t *testing.T) {
	var attempts atomic.Int32
	mapf := func(_ context.Context, split int) ([]kv, error) {
		if split == 1 && attempts.Add(1) < 3 {
			return nil, errors.New("transient")
		}
		return []kv{{uint64(split), 1}}, nil
	}
	got, _, err := sumJob(context.Background(), seq(3), mapf, Config{MaxAttempts: 3, Mappers: 1})
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
	mapf := func(context.Context, int) ([]kv, error) {
		return nil, errors.New("permanent")
	}
	_, log, err := sumJob(context.Background(), []int{0}, mapf, Config{MaxAttempts: 2})
	if !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("err = %v, want ErrTooManyFailures", err)
	}
	if len(log) != 0 {
		t.Fatalf("a split that never succeeded committed %d times", len(log))
	}
}

// A map task that fails after building its result must not commit it.
// Under retries, a node killed mid-job and speculation, every split
// commits exactly once, and always a successful attempt's result; the
// straggler whose backup won returns a good result too late, and that
// is dropped as well.
func TestFailedAttemptEmissionsDiscarded(t *testing.T) {
	const n, straggler = 24, 5
	type out struct {
		split, attempt int
		failed         bool
	}
	var attempts [n]atomic.Int32
	stragglerDone := make(chan struct{})
	mapf := func(_ context.Context, split int) (out, error) {
		a := int(attempts[split].Add(1))
		if split%4 == 0 && a == 1 {
			return out{split, a, true}, errors.New("fail after building a result")
		}
		if split == straggler && a == 1 {
			// The original hangs until its backup has committed, then
			// returns a good result that must lose the race.
			select {
			case <-stragglerDone:
			case <-time.After(10 * time.Second):
			}
		}
		return out{split, a, false}, nil
	}
	var nodeOneTasks atomic.Int32
	var stats Stats
	cfg := Config{
		Mappers: 4, MaxAttempts: 3,
		Nodes:  2,
		NodeOf: func(i int) int { return i % 2 },
		NodeFault: func(node int) error {
			if node == 1 && nodeOneTasks.Add(1) > 3 {
				return errors.New("node 1 left the cluster")
			}
			return nil
		},
		Speculate: true,
		Stats:     &stats,
	}
	var mu sync.Mutex
	var log []commitRec
	committed := map[int]out{}
	err := Run(context.Background(), seq(n), mapf, func(split int, r out, local bool, busy time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		log = append(log, commitRec{split, local, busy})
		if _, again := committed[split]; !again && split == straggler {
			close(stragglerDone)
		}
		committed[split] = r
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	onceEach(t, log, n)
	for split, r := range committed {
		if r.failed || r.split != split {
			t.Fatalf("split %d committed %+v", split, r)
		}
	}
	if r := committed[straggler]; r.attempt == 1 {
		t.Fatal("the straggler's original attempt committed after its backup")
	}
	if stats.Failures.Load() == 0 || stats.WorkersLost.Load() == 0 || stats.SpecWins.Load() == 0 {
		t.Fatalf("failures=%d lost=%d specWins=%d, want all > 0",
			stats.Failures.Load(), stats.WorkersLost.Load(), stats.SpecWins.Load())
	}
}

func TestEmptySplits(t *testing.T) {
	got, log, err := sumJob(context.Background(), nil,
		func(context.Context, int) ([]kv, error) { return nil, nil }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || len(log) != 0 {
		t.Fatal("no splits should yield no commits")
	}
}

func TestNilFuncsRejected(t *testing.T) {
	commit := func(int, int, bool, time.Duration) {}
	if err := Run[int, int](context.Background(), []int{1}, nil, commit, Config{}); err == nil {
		t.Fatal("nil map should error")
	}
	mapf := func(context.Context, int) (int, error) { return 0, nil }
	if err := Run[int, int](context.Background(), []int{1}, mapf, nil, Config{}); err == nil {
		t.Fatal("nil commit should error")
	}
}

// A job cancelled mid-flight — after some map tasks have already
// succeeded — must stop promptly with the context error, and the
// cancelled mapper must NOT be retried: retries are for transient task
// failures, not for the job being torn down.
func TestMidJobCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started, retries atomic.Int32
	mapf := func(ctx context.Context, split int) ([]kv, error) {
		n := started.Add(1)
		if n > 3 {
			retries.Add(1) // any attempt after the cancelling one is a retry or a straggler
		}
		if n == 3 {
			cancel() // third task cancels the job partway through
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return []kv{{uint64(split), 1}}, nil
	}
	_, _, err := sumJob(ctx, seq(8), mapf, Config{Mappers: 1, MaxAttempts: 5})
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
	mapf := func(context.Context, int) ([]kv, error) { return []kv{{1, 1}}, nil }
	if _, _, err := sumJob(ctx, make([]int, 10000), mapf, Config{}); err == nil {
		t.Fatal("cancelled job should error")
	}
}

// Deterministic unit coverage of the lane scheduler itself: affine
// pops drain the home lane in FIFO order, and steals come from the
// most-loaded foreign lane.
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
// commit exactly once, and local+remote accounting must cover every
// task.
func TestLocalityEquivalenceAndAccounting(t *testing.T) {
	mapf := func(_ context.Context, split int) ([]kv, error) {
		var out []kv
		for i := 0; i < 200; i++ {
			out = append(out, kv{uint64((split*11 + i) % 17), float64(split*1000 + i)})
		}
		return out, nil
	}
	splits := seq(24)
	base, _, err := sumJob(context.Background(), splits, mapf, Config{Mappers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Mappers: 6,
		Nodes:   4,
		NodeOf:  func(i int) int { return i % 4 },
	}
	got, log, err := sumJob(context.Background(), splits, mapf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameSums(t, "locality", got, base)
	onceEach(t, log, len(splits))
	var local int
	for _, c := range log {
		if c.local {
			local++
		}
	}
	if local == 0 {
		t.Fatal("no task ran on its split's home lane")
	}
}

// A single worker homed on node 0 drains its own lane before touching
// any other: the first lane-0-sized prefix of its tasks must all be
// local, the rest remote — deterministic because there is no second
// worker to race.
func TestSingleWorkerDrainsHomeLaneFirst(t *testing.T) {
	mapf := func(context.Context, int) ([]kv, error) { return []kv{{0, 1}}, nil }
	cfg := Config{
		Mappers: 1,
		Nodes:   3,
		NodeOf:  func(i int) int { return i % 3 },
	}
	_, order, err := sumJob(context.Background(), make([]int, 9), mapf, cfg)
	if err != nil {
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
	mapf := func(context.Context, int) ([]kv, error) { return []kv{{0, 1}}, nil }
	if _, _, err := sumJob(context.Background(), []int{0}, mapf, Config{Nodes: 2}); err == nil {
		t.Fatal("Nodes without NodeOf should error")
	}
}

// Retries must survive lane scheduling: a transiently failing split on
// a foreign lane still completes, and it commits once.
func TestLaneRetryStillBounded(t *testing.T) {
	var attempts atomic.Int32
	mapf := func(_ context.Context, split int) ([]kv, error) {
		if split == 2 && attempts.Add(1) < 2 {
			return nil, errors.New("transient")
		}
		return []kv{{uint64(split), 1}}, nil
	}
	cfg := Config{
		Mappers: 2, MaxAttempts: 3,
		Nodes:  2,
		NodeOf: func(i int) int { return i % 2 },
	}
	got, log, err := sumJob(context.Background(), seq(4), mapf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != 1 {
		t.Fatalf("retried split result = %v", got[2])
	}
	onceEach(t, log, 4) // once per split, not per attempt
}

// Cancellation propagates through the lane pool exactly as through the
// placement-free path.
func TestLaneCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mapf := func(context.Context, int) ([]kv, error) { return []kv{{1, 1}}, nil }
	cfg := Config{Nodes: 3, NodeOf: func(i int) int { return i % 3 }}
	if _, _, err := sumJob(ctx, make([]int, 1000), mapf, cfg); err == nil {
		t.Fatal("cancelled lane job should error")
	}
}
