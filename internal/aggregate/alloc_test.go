package aggregate

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/synth"
)

// The trial kernel is allocation-free once warm: after one call has
// grown a worker's scratch, running the same batch again through it
// allocates nothing, on a stateless book and on one with reinstatement
// terms, in expected and sampling mode, with and without per-contract
// output. An allocation per batch, block or trial fails it on any host.
func TestWarmBatchAllocatesNothing(t *testing.T) {
	s := buildScenario(t, synth.Small(3))
	for _, book := range []struct {
		name string
		in   *Input
	}{{"stateless", input(s)}, {"reinstatements", reinstInput(input(s), nil)}} {
		in := book.in
		fx, err := in.EnsureFlat()
		if err != nil {
			t.Fatal(err)
		}
		batch, err := in.YELT.ReadTrials(context.Background(), 0, min(1000, in.YELT.NumTrials), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, sampling := range []bool{false, true} {
			for _, perContract := range []bool{false, true} {
				cfg := Config{Seed: 5, Sampling: sampling, PerContract: perContract}
				what := fmt.Sprintf("%s book, sampling %v, per-contract %v", book.name, sampling, perContract)
				res := newResult(in, cfg)
				scratch := &trialScratch{}
				runBatchBlocked(fx, in, cfg, batch, 0, res, scratch, 0)
				var total float64
				for _, v := range res.Portfolio.Agg {
					total += v
				}
				if total <= 0 {
					t.Fatalf("%s: the batch recovered nothing, the kernel was not exercised", what)
				}
				allocs := testing.AllocsPerRun(5, func() {
					runBatchBlocked(fx, in, cfg, batch, 0, res, scratch, 0)
				})
				if allocs != 0 {
					t.Fatalf("%s: %v allocations per warm batch, want 0", what, allocs)
				}
			}
		}
	}
}
