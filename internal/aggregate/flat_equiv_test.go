package aggregate

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/lossindex"
	"repro/internal/stream"
	"repro/internal/synth"
	"repro/internal/yelt"
)

// The kernel-equivalence suite: the trial kernel must be bit-identical
// to the LegacyLookup oracle for every engine × sampling × per-contract
// × seed × batch-size × block-size combination — draw order,
// accumulation order, and clamp arithmetic all survive the flattening
// and the blocking.

type kernelCase struct {
	name     string
	engine   func() Engine
	sampling []bool
}

func kernelMatrix() []kernelCase {
	return []kernelCase{
		{name: "sequential", engine: func() Engine { return Sequential{} }, sampling: []bool{false, true}},
		{name: "parallel", engine: func() Engine { return Parallel{} }, sampling: []bool{false, true}},
		{name: "mapreduce", engine: func() Engine { return MapReduce{SplitTrials: 401} }, sampling: []bool{false, true}},
	}
}

func TestKernelEquivalenceAllEngines(t *testing.T) {
	s := buildScenario(t, synth.Small(31))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := lossindex.Flatten(ix, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for _, seed := range []uint64{5, 17} {
		for _, sampling := range []bool{false, true} {
			for _, perCon := range []bool{false, true} {
				refCfg := Config{Seed: seed, Sampling: sampling, PerContract: perCon}
				legacy, err := LegacyLookup{}.Run(ctx, input(s), refCfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, kc := range kernelMatrix() {
					wantSampling := false
					for _, sm := range kc.sampling {
						wantSampling = wantSampling || sm == sampling
					}
					if !wantSampling {
						continue
					}
					name := fmt.Sprintf("%s/sampling=%v/percon=%v/seed=%d", kc.name, sampling, perCon, seed)
					in := &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix, Flat: fx}
					got, err := kc.engine().Run(ctx, in, refCfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					resultsBitIdentical(t, name, legacy, got)
				}
			}
		}
	}
}

// Batch size must not leak into kernel results: the kernel over a
// streaming source, at batch sizes that do and do not divide the trial
// count, must still match the legacy reference bit-for-bit.
func TestKernelEquivalenceAcrossBatchSizes(t *testing.T) {
	s := buildScenario(t, synth.Small(32))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := lossindex.Flatten(ix, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	refCfg := Config{Seed: 9, Sampling: true, PerContract: true}
	legacy, err := LegacyLookup{}.Run(ctx, input(s), refCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 7, 500, 997, 4096} {
		gen, err := s.YELTGenerator()
		if err != nil {
			t.Fatal(err)
		}
		cfg := refCfg
		cfg.BatchTrials = batch
		in := &Input{Source: gen, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix, Flat: fx}
		got, err := (Parallel{}).Run(ctx, in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		resultsBitIdentical(t, fmt.Sprintf("batch=%d", batch), legacy, got)
	}
}

// Block size must not leak into kernel results either: the kernel at
// block sizes that do and do not divide the trial
// count (or the batch size) must still match the legacy reference
// bit-for-bit, in both modes, with and without per-contract tables.
// Block 1 degenerates to per-trial passes; blocks larger than a batch
// clamp to it.
func TestKernelEquivalenceAcrossBlockSizes(t *testing.T) {
	s := buildScenario(t, synth.Small(36))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := lossindex.Flatten(ix, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, sampling := range []bool{false, true} {
		for _, perCon := range []bool{false, true} {
			refCfg := Config{Seed: 21, Sampling: sampling, PerContract: perCon}
			legacy, err := LegacyLookup{}.Run(ctx, input(s), refCfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, block := range []int{1, 7, 32, 33, 64, 97, 98, 128} {
				for _, batch := range []int{0, 97} { // 0: default; 97: blocks straddle batch ends
					name := fmt.Sprintf("block=%d/batch=%d/sampling=%v/percon=%v", block, batch, sampling, perCon)
					cfg := refCfg
					cfg.TrialBlock = block
					cfg.BatchTrials = batch
					gen, err := s.YELTGenerator()
					if err != nil {
						t.Fatal(err)
					}
					in := &Input{Source: gen, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix, Flat: fx}
					got, err := (Parallel{}).Run(ctx, in, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					resultsBitIdentical(t, name, legacy, got)
				}
			}
		}
	}
}

// A bare input (no pre-built layouts) must lazily build what the
// kernel scans and still agree with the reference.
func TestKernelLazyBuild(t *testing.T) {
	s := buildScenario(t, synth.Small(34))
	cfg := Config{Seed: 3, Sampling: true}
	legacy, err := LegacyLookup{}.Run(context.Background(), input(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := input(s)
	got, err := (Sequential{}).Run(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if in.Index == nil || in.Flat == nil {
		t.Fatal("run did not memoize its layouts")
	}
	resultsBitIdentical(t, "lazy", legacy, got)
}

// Validate must reject a flat layout built for a different book shape.
func TestValidateRejectsMismatchedFlat(t *testing.T) {
	s := buildScenario(t, synth.Small(35))
	sub := &Input{YELT: s.YELT, ELTs: s.ELTs[:1], Portfolio: singleContractPortfolio(s, 0)}
	if _, err := sub.EnsureFlat(); err != nil {
		t.Fatal(err)
	}
	in := input(s)
	in.Flat = sub.Flat
	if err := in.Validate(); err == nil {
		t.Fatal("mismatched flat layout accepted")
	}
}

// --- streamRange resident-bytes drain (satellite fix) ---

// failingSource wraps a Source and fails the (failAt+1)-th read — the
// mid-stream I/O error shape (a torn disk shard, a cancelled remote
// read) that must not leave resident-bytes accounting pinned.
type failingSource struct {
	inner  yelt.Source
	failAt int
	reads  int
}

var errMidStream = errors.New("mid-stream read failure")

func (f *failingSource) TrialCount() int { return f.inner.TrialCount() }

func (f *failingSource) ReadTrials(ctx context.Context, lo, hi int, buf *yelt.Table) (*yelt.Table, error) {
	if f.reads == f.failAt {
		return nil, errMidStream
	}
	f.reads++
	return f.inner.ReadTrials(ctx, lo, hi, buf)
}

// trackerDrained asserts every worker's resident bytes returned to
// zero — the invariant streamRange must uphold on every exit path.
func trackerDrained(t *testing.T, rt *residentTracker) {
	t.Helper()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.cur != 0 {
		t.Fatalf("tracker left %d resident bytes after stream ended", rt.cur)
	}
	for w, b := range rt.per {
		if b != 0 {
			t.Fatalf("worker %d left %d resident bytes", w, b)
		}
	}
}

func TestStreamRangeDrainsResidentOnReadError(t *testing.T) {
	s := buildScenario(t, synth.Small(33))
	rt := newResidentTracker()
	src := &failingSource{inner: s.YELT, failAt: 2}
	err := streamRange(context.Background(), src, stream.Range{Lo: 0, Hi: s.YELT.NumTrials}, 100, rt, 3, &yelt.Table{},
		func(*yelt.Table, int) error { return nil })
	if !errors.Is(err, errMidStream) {
		t.Fatalf("err = %v, want mid-stream failure", err)
	}
	if rt.Peak() <= 0 {
		t.Fatal("no resident bytes were ever tracked before the failure")
	}
	trackerDrained(t, rt)
}

func TestStreamRangeDrainsResidentOnFnError(t *testing.T) {
	s := buildScenario(t, synth.Small(33))
	rt := newResidentTracker()
	boom := errors.New("kernel failure")
	calls := 0
	err := streamRange(context.Background(), s.YELT, stream.Range{Lo: 0, Hi: s.YELT.NumTrials}, 100, rt, 0, &yelt.Table{},
		func(*yelt.Table, int) error {
			calls++
			if calls == 2 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want fn failure", err)
	}
	trackerDrained(t, rt)
}
