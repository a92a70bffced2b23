// Package stream provides the parallel streaming substrate for stage 1
// of the pipeline. The paper's stage-1 data challenge (§II) is that
// "data needs to be organised in a small number of very large tables
// and streamed by independent processes, further to which the results
// need to be aggregated" — this package supplies exactly that pattern:
// range partitioning, bounded worker pools with error propagation and
// cancellation, and ordered fan-in of per-worker partial results.
package stream

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Range is a half-open index interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Partition splits [0, n) into at most parts contiguous ranges of
// near-equal size. It never returns empty ranges; fewer than parts
// ranges are returned when n < parts.
func Partition(n, parts int) []Range {
	if n <= 0 || parts <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	out := make([]Range, 0, parts)
	base := n / parts
	rem := n % parts
	lo := 0
	for i := 0; i < parts; i++ {
		sz := base
		if i < rem {
			sz++
		}
		out = append(out, Range{lo, lo + sz})
		lo += sz
	}
	return out
}

// Chunks splits [0, n) into consecutive ranges of size at most chunk:
// the MapReduce engine's map splits, over a whole source or within one
// spilled shard.
func Chunks(n, chunk int) []Range {
	if n <= 0 || chunk <= 0 {
		return nil
	}
	out := make([]Range, 0, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, Range{lo, hi})
	}
	return out
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines.
// The first error cancels outstanding work (fn should poll ctx for
// long-running items); all workers are joined before return.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var next int64 = -1
	var firstErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				select {
				case <-ctx.Done():
					return
				default:
				}
				if err := fn(ctx, i); err != nil {
					firstErr.CompareAndSwap(nil, err)
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return e.(error)
	}
	return ctx.Err()
}

// ForEachRange runs fn over a static partition of [0, n) into exactly
// min(workers, n) contiguous ranges, one goroutine per range. Use this
// instead of ForEach when per-item dispatch would dominate (the
// aggregate engines process millions of trials; work-stealing per trial
// would spend more time on atomics than on losses).
func ForEachRange(ctx context.Context, n, workers int, fn func(ctx context.Context, r Range, worker int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ranges := Partition(n, workers)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var firstErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(len(ranges))
	for w, r := range ranges {
		go func(w int, r Range) {
			defer wg.Done()
			if err := fn(ctx, r, w); err != nil {
				firstErr.CompareAndSwap(nil, err)
				cancel()
			}
		}(w, r)
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return e.(error)
	}
	return ctx.Err()
}

// MapReduceLocal computes reduce over fn(i) for i in [0, n) with one
// partial accumulator per worker and a final sequential merge — the
// "streamed by independent processes, then aggregated" shape from the
// paper's stage 1, in process-local form.
func MapReduceLocal[T any](ctx context.Context, n, workers int, zero func() T, fn func(ctx context.Context, r Range, acc T) error, merge func(into, from T)) (T, error) {
	var result T
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ranges := Partition(n, workers)
	accs := make([]T, len(ranges))
	for i := range accs {
		accs[i] = zero()
	}
	err := ForEachRange(ctx, n, workers, func(ctx context.Context, r Range, w int) error {
		return fn(ctx, r, accs[w])
	})
	result = zero()
	if err != nil {
		return result, err
	}
	for _, a := range accs {
		merge(result, a)
	}
	return result, nil
}
