package mapreduce

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The backoff schedule is a pure function of (seed, split, attempt):
// capped exponential with jitter in [d/2, d), replayable run to run.
func TestBackoffDelayDeterministicAndCapped(t *testing.T) {
	if retryBaseDelay<<8 < retryMaxDelay {
		t.Fatal("attempt 9 no longer reaches the cap: the attempts below miss the capped regime")
	}
	cfg := Config{RetrySeed: 42}
	for attempt := 1; attempt <= 12; attempt++ {
		for split := 0; split < 5; split++ {
			d1 := backoffDelay(cfg, split, attempt)
			d2 := backoffDelay(cfg, split, attempt)
			if d1 != d2 {
				t.Fatalf("attempt %d split %d: %v != %v (jitter not deterministic)", attempt, split, d1, d2)
			}
			nominal := retryMaxDelay
			if shift := attempt - 1; shift < 20 {
				if b := retryBaseDelay << shift; b < nominal {
					nominal = b
				}
			}
			if d1 < nominal/2 || d1 >= nominal {
				t.Fatalf("attempt %d split %d: delay %v outside [%v, %v)", attempt, split, d1, nominal/2, nominal)
			}
		}
	}
	// Different seeds decorrelate.
	other := cfg
	other.RetrySeed = 43
	same := 0
	for split := 0; split < 16; split++ {
		if backoffDelay(cfg, split, 3) == backoffDelay(other, split, 3) {
			same++
		}
	}
	if same == 16 {
		t.Fatal("different seeds produced identical jitter everywhere")
	}
}

// A pending retry backoff must not delay cancellation: the sleep every
// backoff takes returns promptly even when it is far longer than the
// time to cancellation.
func TestBackoffDoesNotDelayCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if err := sleepCtx(ctx, 30*time.Second); err == nil {
		t.Fatal("cancelled sleep should error")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("cancellation took %v; backoff sleep is not context-aware", el)
	}
}

// A panicking map attempt burns an attempt instead of crashing the
// process, and succeeds on retry.
func TestMapPanicRecoveredAndRetried(t *testing.T) {
	var first atomic.Bool
	mapf := func(_ context.Context, split int) ([]kv, error) {
		if first.CompareAndSwap(false, true) {
			panic("poisoned split")
		}
		return []kv{{uint64(split), 1}}, nil
	}
	var stats Stats
	got, _, err := sumJob(context.Background(), []int{0}, mapf,
		Config{MaxAttempts: 2, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("result = %v", got[0])
	}
	if stats.Panics.Load() != 1 || stats.Retries.Load() != 1 {
		t.Fatalf("panics=%d retries=%d, want 1/1", stats.Panics.Load(), stats.Retries.Load())
	}
}

// A split that panics on every attempt exhausts its budget like any
// other permanent failure, and the error names the panic.
func TestMapPanicExhaustsAttempts(t *testing.T) {
	mapf := func(context.Context, int) ([]kv, error) {
		panic("always")
	}
	_, _, err := sumJob(context.Background(), []int{0}, mapf, Config{MaxAttempts: 3})
	if !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("err = %v, want ErrTooManyFailures", err)
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error %q does not mention the panic", err)
	}
}

// Killing one node's workers mid-job strands nothing: the dead lane's
// splits are stolen by survivors and the result is unchanged.
func TestNodeFaultSurvivorsStealWork(t *testing.T) {
	mapf := func(_ context.Context, split int) ([]kv, error) {
		var out []kv
		for i := 0; i < 100; i++ {
			out = append(out, kv{uint64((split + i) % 7), float64(split*100 + i)})
		}
		return out, nil
	}
	splits := seq(16)
	base, _, err := sumJob(context.Background(), splits, mapf, Config{Mappers: 1})
	if err != nil {
		t.Fatal(err)
	}
	lost := errors.New("node 1 is gone")
	var stats Stats
	cfg := Config{
		Mappers: 4,
		Nodes:   2,
		Holders: func(i int) []int { return []int{i % 2} },
		NodeFault: func(node int) error {
			if node == 1 {
				return lost
			}
			return nil
		},
		Stats: &stats,
	}
	got, log, err := sumJob(context.Background(), splits, mapf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameSums(t, "node loss", got, base)
	onceEach(t, log, len(splits))
	// Mappers=4 on 2 nodes homes workers 1 and 3 on node 1: both retire.
	if stats.WorkersLost.Load() != 2 {
		t.Fatalf("WorkersLost = %d, want 2", stats.WorkersLost.Load())
	}
}

// Losing every worker with splits still queued is a job failure, not a
// hang or a short result.
func TestAllWorkersLost(t *testing.T) {
	lost := errors.New("cluster gone")
	var stats Stats
	cfg := Config{
		Mappers:   3,
		NodeFault: func(int) error { return lost },
		Stats:     &stats,
	}
	mapf := func(_ context.Context, split int) ([]kv, error) {
		return []kv{{uint64(split), 1}}, nil
	}
	_, _, err := sumJob(context.Background(), seq(4), mapf, cfg)
	if !errors.Is(err, ErrWorkersLost) {
		t.Fatalf("err = %v, want ErrWorkersLost", err)
	}
	if stats.WorkersLost.Load() == 0 {
		t.Fatal("no workers recorded lost")
	}
}

// Injected task delays stretch the busy time a commit reports but
// never the values.
func TestTaskDelayInjected(t *testing.T) {
	const delay = 30 * time.Millisecond
	cfg := Config{
		Mappers: 2,
		TaskDelay: func(split int) time.Duration {
			if split == 0 {
				return delay
			}
			return 0
		},
	}
	mapf := func(_ context.Context, split int) ([]kv, error) {
		return []kv{{uint64(split), 1}}, nil
	}
	got, log, err := sumJob(context.Background(), seq(3), mapf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("got %v", got)
	}
	for _, c := range log {
		if c.split == 0 && c.busy < delay {
			t.Fatalf("delayed split ran in %v, want >= %v", c.busy, delay)
		}
	}
}

// A straggling first execution gets a speculative backup that wins;
// the loser's result is discarded, so every split commits exactly once
// and the sums are as if each split ran once.
func TestSpeculativeBackupWins(t *testing.T) {
	var firstRun atomic.Bool
	release := make(chan struct{})
	mapf := func(ctx context.Context, split int) ([]kv, error) {
		if split == 0 && firstRun.CompareAndSwap(false, true) {
			// The original execution of split 0 hangs until the job is
			// effectively over; only a backup can finish it promptly.
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return []kv{{uint64(split), 1}}, nil
	}
	var stats Stats
	cfg := Config{
		Mappers:   4,
		Speculate: true,
		Stats:     &stats,
	}
	splits := seq(12)
	done := make(chan struct{})
	var got map[uint64]float64
	var log []commitRec
	var err error
	go func() {
		defer close(done)
		got, log, err = sumJob(context.Background(), splits, mapf, cfg)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("job hung: speculation never rescued the straggler")
	}
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	onceEach(t, log, len(splits))
	for i := range splits {
		if got[uint64(i)] != 1 {
			t.Fatalf("split %d contributed %v, want 1 (duplicate or lost commit)", i, got[uint64(i)])
		}
	}
	if stats.SpecLaunched.Load() == 0 || stats.SpecWins.Load() == 0 {
		t.Fatalf("launched=%d wins=%d, want both > 0", stats.SpecLaunched.Load(), stats.SpecWins.Load())
	}
}

// Without stragglers, speculation stays quiet and results are
// unchanged — backups are a tail-latency lever, not a correctness one.
func TestSpeculationQuietOnHealthyJob(t *testing.T) {
	mapf := func(_ context.Context, split int) ([]kv, error) {
		return []kv{{uint64(split % 5), float64(split)}}, nil
	}
	splits := seq(32)
	base, _, err := sumJob(context.Background(), splits, mapf, Config{Mappers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	got, log, err := sumJob(context.Background(), splits, mapf,
		Config{Mappers: 4, Speculate: true, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	onceEach(t, log, len(splits))
	for k, v := range base {
		if got[k] != v {
			t.Fatalf("key %d: %v vs %v", k, got[k], v)
		}
	}
}

// Failure counters add up: N transient failures cost N retries and the
// job still accounts one success per split.
func TestStatsAccounting(t *testing.T) {
	var flaky atomic.Int32
	mapf := func(_ context.Context, split int) ([]kv, error) {
		if split == 3 && flaky.Add(1) <= 2 {
			return nil, errors.New("transient")
		}
		return []kv{{uint64(split), 1}}, nil
	}
	var stats Stats
	_, _, err := sumJob(context.Background(), seq(5), mapf,
		Config{MaxAttempts: 4, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failures.Load() != 2 || stats.Retries.Load() != 2 {
		t.Fatalf("failures=%d retries=%d, want 2/2", stats.Failures.Load(), stats.Retries.Load())
	}
	if stats.Attempts.Load() != 7 { // 5 splits + 2 re-attempts
		t.Fatalf("attempts=%d, want 7", stats.Attempts.Load())
	}
}
