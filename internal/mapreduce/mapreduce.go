// Package mapreduce is a stdlib-only MapReduce engine, the execution
// model the paper proposes for the distributed-file strategy: "relying
// on MapReduce or Hadoop style computations on the cloud" (§II). A job
// maps over dataset splits in parallel and hands each split's result to
// the caller's commit function exactly once, the moment its winning
// attempt finishes.
//
// There is no keyed shuffle and no reduce phase. The companion Hadoop
// work (arXiv 1311.5686) maps trial splits to per-range YLT segments
// and reduces them into the final table, but a segment's place in that
// table is known before its split runs, so the reduce is a copy the
// commit can make itself. Committing per task is also what lets a
// caller feed results downstream while the job runs: a shuffle holds
// every split's output until the last map task has finished.
//
// The failure model mirrors the frameworks it stands in for. Map
// attempts that fail (errors or recovered panics) are retried with
// capped exponential backoff and deterministic jitter, up to
// Config.MaxAttempts. A worker whose node is reported lost
// (Config.NodeFault) stops taking tasks; its queued splits are stolen
// by survivors. With Config.Speculate, splits whose runtime exceeds a
// robust percentile of completed tasks get a backup attempt on an idle
// worker — first finisher wins, the loser's result is discarded. All
// of this is safe because every attempt builds its result privately
// and only the attempt that wins the split's done flag commits it.
//
// When the splits live on distinct storage nodes (internal/diskstore),
// the scheduler can be made locality-aware: Config.Nodes/NodeOf carve
// the mapper pool into per-node lanes, each split is queued on the lane
// of the node that owns it, and a lane's workers drain their own queue
// before stealing from the most-loaded other lane. Moving the mapper to
// the data instead of the data to the mapper is the central lever of
// the companion Hadoop work; each commit reports whether its task ran
// local to the split, so callers can account local versus remote data
// motion.
package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a job.
type Config struct {
	// Mappers bounds concurrent map tasks; <= 0 means GOMAXPROCS.
	Mappers int
	// MaxAttempts per map task (>= 1). Transient map failures are
	// retried up to this bound.
	MaxAttempts int
	// RetrySeed seeds the deterministic backoff jitter (see
	// retryBaseDelay).
	RetrySeed uint64
	// Nodes, with NodeOf, turns on locality-aware lane scheduling:
	// mapper w belongs to node w mod Nodes, and split i is queued on
	// the lane of node NodeOf(i). A worker drains its own lane first
	// and steals from the most-loaded other lane only when its own is
	// empty (load balance on skewed splits costs remote motion, never
	// idle workers). <= 0 leaves scheduling placement-free.
	Nodes int
	// NodeOf returns the storage node owning split i. Required when
	// Nodes > 0.
	NodeOf func(split int) int
	// LocalOf, if non-nil, overrides the placement predicate used for
	// accounting: whether a worker homed on node home scans split i
	// locally. The default is NodeOf(i) mod Nodes == home; replicated
	// stores pass "home holds any replica of the split's shard".
	LocalOf func(split, home int) bool
	// NodeFault, if non-nil, is consulted by each lane worker before it
	// takes another task; a non-nil error retires the worker (its node
	// left the cluster). Queued splits of a retired lane are stolen by
	// surviving workers, so a node kill degrades throughput, never
	// correctness. Tasks already started by the worker run to
	// completion — the model is a node drained between tasks.
	NodeFault func(node int) error
	// TaskDelay, if non-nil, returns an injected extra runtime for one
	// execution of split i — the deterministic straggler hook
	// (faultinject.Plan.SplitDelay). The sleep watches the context.
	TaskDelay func(split int) time.Duration
	// Speculate launches a backup attempt for a split whose runtime
	// exceeds specMultiplier × the specQuantile-quantile of completed
	// task durations (once specMinDone tasks have completed), on a
	// worker that would otherwise idle. First finisher wins; the
	// loser's result is discarded.
	Speculate bool
	// Stats, if non-nil, accumulates failure/retry/speculation counters
	// for the run (added to, not reset — callers aggregate across jobs).
	Stats *Stats
}

// Stats counts the failure-model events of one or more jobs. All
// fields are updated atomically and may be read while a job runs.
type Stats struct {
	// Attempts counts map attempts started; Failures counts attempts
	// that returned an error or panicked; Retries counts re-attempts
	// after a failure (Failures minus permanently failed splits).
	Attempts atomic.Int64
	Failures atomic.Int64
	Retries  atomic.Int64
	// Panics counts attempts that failed by recovered panic
	// (a subset of Failures).
	Panics atomic.Int64
	// SpecLaunched counts backup attempts launched; SpecWins counts
	// backups that finished before the original attempt.
	SpecLaunched atomic.Int64
	SpecWins     atomic.Int64
	// WorkersLost counts lane workers retired by NodeFault.
	WorkersLost atomic.Int64
}

// The retry backoff is retryBaseDelay before the first retry, doubling
// with each later one up to retryMaxDelay. The actual sleep is jittered
// to 50–100% of the nominal delay, deterministically from (RetrySeed,
// split, attempt), so retry storms decorrelate without a global RNG
// making runs unreproducible. Backoff sleeps watch the context:
// cancellation is never delayed by a pending retry.
const (
	retryBaseDelay = time.Millisecond
	retryMaxDelay  = 250 * time.Millisecond
)

// The straggler threshold of Config.Speculate.
const (
	specQuantile   = 0.75
	specMultiplier = 2
	specMinDone    = 3
)

func (c Config) normalized() Config {
	if c.Mappers <= 0 {
		c.Mappers = runtime.GOMAXPROCS(0)
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 1
	}
	return c
}

// ErrTooManyFailures is returned when a map task exhausts its attempts.
var ErrTooManyFailures = errors.New("mapreduce: map task exhausted attempts")

// ErrWorkersLost is returned when every worker has been retired by
// NodeFault while splits remain unprocessed — the whole cluster died.
var ErrWorkersLost = errors.New("mapreduce: all workers lost")

// laneScheduler hands out split indices to workers keyed by the
// worker's home node: each node has its own FIFO lane, and a worker
// steals from the most-loaded foreign lane only when its own is dry.
// The caller decides locality (owner node == home node) itself — the
// scheduler only orders the work.
type laneScheduler struct {
	mu    sync.Mutex
	lanes [][]int // per-lane FIFO of split indices
	heads []int   // consumed prefix per lane
}

func newLaneScheduler(n, nodes int, nodeOf func(int) int) *laneScheduler {
	s := &laneScheduler{lanes: make([][]int, nodes), heads: make([]int, nodes)}
	for i := 0; i < n; i++ {
		lane := nodeOf(i) % nodes
		if lane < 0 {
			lane += nodes
		}
		s.lanes[lane] = append(s.lanes[lane], i)
	}
	return s
}

// next returns the next split for a worker homed on the given node,
// preferring the home lane and stealing from the longest foreign lane
// otherwise. ok is false when no work remains.
func (s *laneScheduler) next(home int) (split int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lane := home % len(s.lanes)
	if s.heads[lane] < len(s.lanes[lane]) {
		split = s.lanes[lane][s.heads[lane]]
		s.heads[lane]++
		return split, true
	}
	// Steal from the lane with the most unconsumed work.
	best, bestLeft := -1, 0
	for l := range s.lanes {
		if left := len(s.lanes[l]) - s.heads[l]; left > bestLeft {
			best, bestLeft = l, left
		}
	}
	if best < 0 {
		return 0, false
	}
	split = s.lanes[best][s.heads[best]]
	s.heads[best]++
	return split, true
}

// splitState tracks one split's attempt chains. done flips exactly
// once (CAS by the winning attempt — the commit point that makes
// duplicate speculative execution safe); chains counts attempt chains
// that could still produce the split's result (the original, plus a
// speculative backup), so a chain's permanent failure is fatal only
// when it was the last hope; spec latches that a backup was launched.
type splitState struct {
	done   atomic.Bool
	chains atomic.Int32
	spec   atomic.Bool
}

// specCtl decides when a running split is a straggler worth backing
// up: its elapsed time exceeds a robust percentile of completed task
// durations by a configurable multiple.
type specCtl struct {
	mu      sync.Mutex
	durs    []time.Duration
	running map[int]time.Time // split -> original chain's start
}

func newSpecCtl() *specCtl { return &specCtl{running: map[int]time.Time{}} }

func (c *specCtl) start(i int) {
	c.mu.Lock()
	c.running[i] = time.Now()
	c.mu.Unlock()
}

func (c *specCtl) complete(i int, d time.Duration) {
	c.mu.Lock()
	delete(c.running, i)
	c.durs = append(c.durs, d)
	c.mu.Unlock()
}

// candidate returns the longest-running eligible split past the
// straggler threshold, if any.
func (c *specCtl) candidate(eligible func(int) bool) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.durs) < specMinDone || len(c.running) == 0 {
		return 0, false
	}
	sorted := append([]time.Duration(nil), c.durs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	q := sorted[int(specQuantile*float64(len(sorted)-1))]
	thr := time.Duration(float64(q) * specMultiplier)
	if thr < time.Millisecond {
		// Floor: with microsecond tasks, an OS scheduling hiccup would
		// otherwise look like a straggler.
		thr = time.Millisecond
	}
	now := time.Now()
	best, bestElapsed := -1, thr
	for i, t0 := range c.running {
		if !eligible(i) {
			continue
		}
		if el := now.Sub(t0); el >= bestElapsed {
			best, bestElapsed = i, el
		}
	}
	return best, best >= 0
}

// Run executes a job over splits: mapf computes a split's result and
// commit receives it exactly once, from the split's winning attempt,
// together with whether that attempt ran on a lane of a node holding
// the split (always true when locality is off) and its wall-clock
// duration. A failed or losing attempt's result is never committed.
// mapf may be retried or run twice at once (speculation), so it must
// publish nothing itself. commit runs on the worker goroutines,
// concurrently for distinct splits, and Run returns only after every
// commit has returned.
func Run[S, R any](
	ctx context.Context,
	splits []S,
	mapf func(context.Context, S) (R, error),
	commit func(split int, r R, local bool, busy time.Duration),
	cfg Config,
) error {
	if mapf == nil || commit == nil {
		return errors.New("mapreduce: nil map or commit function")
	}
	if cfg.Nodes > 0 && cfg.NodeOf == nil {
		return errors.New("mapreduce: Nodes set without NodeOf")
	}
	cfg = cfg.normalized()
	if cfg.Nodes <= 0 {
		// Placement-free jobs run as a single-lane cluster: same FIFO
		// order and worker bound, and the failure model (retry backoff,
		// panic recovery, node faults against node 0, speculation)
		// applies uniformly.
		cfg.Nodes = 1
		cfg.NodeOf = func(int) int { return 0 }
	}
	if len(splits) == 0 {
		return nil
	}
	stats := cfg.Stats
	if stats == nil {
		stats = &Stats{}
	}

	states := make([]splitState, len(splits))
	var remaining atomic.Int64
	remaining.Store(int64(len(splits)))
	ctl := newSpecCtl()

	// runAttempt executes one map attempt of split i with panics
	// recovered into errors, so a poisoned split burns its attempt
	// budget instead of crashing the process.
	runAttempt := func(ctx context.Context, i int) (r R, err error) {
		defer func() {
			if rec := recover(); rec != nil {
				stats.Panics.Add(1)
				err = fmt.Errorf("mapreduce: map attempt panicked on split %d: %v", i, rec)
			}
		}()
		return mapf(ctx, splits[i])
	}

	// runChain drives one attempt chain of split i through the retry
	// loop. Two chains may run concurrently for the same split (the
	// original and a speculative backup); whichever wins the done CAS
	// commits its result, the other's is dropped on the floor.
	runChain := func(ctx context.Context, i int, local, backup bool) error {
		var lastErr error
		for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
			if states[i].done.Load() {
				return nil // the other chain already won
			}
			if attempt > 0 {
				stats.Retries.Add(1)
				if err := sleepBackoff(ctx, cfg, i, attempt); err != nil {
					return err
				}
			}
			start := time.Now()
			if cfg.TaskDelay != nil {
				if d := cfg.TaskDelay(i); d > 0 {
					if err := sleepCtx(ctx, d); err != nil {
						return err
					}
				}
			}
			stats.Attempts.Add(1)
			r, err := runAttempt(ctx, i)
			if err != nil {
				// Cancellation is not a task failure: retrying a
				// cancelled mapper can only fail again, so surface it
				// immediately instead of burning the attempt budget.
				if ctx.Err() != nil {
					return ctx.Err()
				}
				stats.Failures.Add(1)
				lastErr = err
				continue
			}
			if states[i].done.CompareAndSwap(false, true) {
				d := time.Since(start)
				commit(i, r, local, d)
				ctl.complete(i, d)
				if backup {
					stats.SpecWins.Add(1)
				}
				remaining.Add(-1)
			}
			return nil
		}
		return fmt.Errorf("%w: split %d after %d attempts: %w", ErrTooManyFailures, i, cfg.MaxAttempts, lastErr)
	}

	return runLanes(ctx, len(splits), cfg, stats, states, ctl, &remaining, runChain)
}

// runLanes is the locality-aware map-phase dispatcher: cfg.Mappers
// workers, worker w homed on node w mod cfg.Nodes, pulling splits from
// a laneScheduler's per-node lanes. A task is local when the split's
// owning node equals the worker's home — true by construction for a
// home-lane pop, false for a steal (Config.LocalOf overrides the
// predicate for replicated stores). The first fatal error cancels
// outstanding work, like stream.ForEach.
//
// A worker checks NodeFault before each pop, so a killed node strands
// nothing: unpopped splits are stolen by surviving lanes. When the
// scheduler runs dry but splits are still in flight, speculating
// workers stay to run backups of stragglers instead of idling.
func runLanes(ctx context.Context, n int, cfg Config, stats *Stats,
	states []splitState, ctl *specCtl, remaining *atomic.Int64,
	runChain func(ctx context.Context, i int, local, backup bool) error,
) error {
	workers := cfg.Mappers
	if workers > n {
		workers = n
	}
	sched := newLaneScheduler(n, cfg.Nodes, cfg.NodeOf)
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// When the last split commits, the phase cancels its own context so
	// attempts that lost a speculative race (possibly stuck on a
	// straggling replica) abort instead of pinning the job open; the
	// flag distinguishes that benign teardown from a real failure.
	var mapComplete atomic.Bool
	finishPhase := func() {
		mapComplete.Store(true)
		cancel()
	}

	isLocal := func(split, home int) bool {
		if cfg.LocalOf != nil {
			return cfg.LocalOf(split, home)
		}
		return cfg.NodeOf(split)%cfg.Nodes == home
	}

	var errMu sync.Mutex
	var firstErr error
	latchErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}
	// finish consumes a chain's outcome; false retires the worker.
	finish := func(i int, err error) bool {
		if err == nil {
			return true
		}
		if ctx.Err() != nil {
			// Job-level cancellation, first fatal error elsewhere, or the
			// phase completing while this chain was a speculative loser.
			if !mapComplete.Load() {
				latchErr(err)
			}
			cancel()
			return false
		}
		if states[i].chains.Add(-1) > 0 || states[i].done.Load() {
			// A concurrent chain can still (or already did) produce this
			// split — the failure is absorbed, the worker moves on.
			return true
		}
		latchErr(err)
		return false
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(home int) {
			defer wg.Done()
			for {
				// Fault check precedes the ctx check so a dead worker is
				// counted exactly once even when the job finishes first.
				if cfg.NodeFault != nil {
					if cfg.NodeFault(home) != nil {
						stats.WorkersLost.Add(1)
						return
					}
				}
				select {
				case <-ctx.Done():
					return
				default:
				}
				if i, ok := sched.next(home); ok {
					states[i].chains.Add(1)
					ctl.start(i)
					if !finish(i, runChain(ctx, i, isLocal(i, home), false)) {
						return
					}
					continue
				}
				if remaining.Load() == 0 {
					finishPhase()
					return
				}
				if !cfg.Speculate {
					// Splits still in flight belong to live chains on
					// other workers; without speculation there is
					// nothing useful left for this one.
					return
				}
				i, ok := ctl.candidate(func(s int) bool {
					return !states[s].spec.Load() && !states[s].done.Load()
				})
				if ok && states[i].spec.CompareAndSwap(false, true) {
					states[i].chains.Add(1)
					stats.SpecLaunched.Add(1)
					if !finish(i, runChain(ctx, i, isLocal(i, home), true)) {
						return
					}
					continue
				}
				if err := sleepCtx(ctx, 200*time.Microsecond); err != nil {
					return
				}
			}
		}(w % cfg.Nodes)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if remaining.Load() == 0 {
		return nil
	}
	if err := parent.Err(); err != nil {
		return err
	}
	return fmt.Errorf("%w: %d splits unprocessed", ErrWorkersLost, remaining.Load())
}

// sleepBackoff sleeps the capped-exponential, deterministically
// jittered delay before retry number attempt of split, returning early
// with the context's error on cancellation.
func sleepBackoff(ctx context.Context, cfg Config, split, attempt int) error {
	return sleepCtx(ctx, backoffDelay(cfg, split, attempt))
}

// backoffDelay is the pure delay schedule: base·2^(attempt-1) capped at
// retryMaxDelay, jittered to 50–100% of nominal by a hash of
// (RetrySeed, split, attempt) — the same run replays the same sleeps,
// different splits decorrelate.
func backoffDelay(cfg Config, split, attempt int) time.Duration {
	d := retryMaxDelay
	if shift := attempt - 1; shift < 20 {
		if base := retryBaseDelay << shift; base < d {
			d = base
		}
	}
	h := mix64(cfg.RetrySeed ^ uint64(split)*0x9e3779b97f4a7c15 ^ uint64(attempt)*0xc2b2ae3d27d4eb4f)
	frac := float64(h>>11) / (1 << 53)
	return d/2 + time.Duration(frac*float64(d/2))
}

// sleepCtx sleeps d unless the context is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// mix64 is the SplitMix64 finalizer — cheap, well-distributed bits for
// the deterministic jitter.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
