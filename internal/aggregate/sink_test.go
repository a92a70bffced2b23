package aggregate

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/synth"
)

// TestBatchSinkExactlyOnce pins the BatchSink contract on the engines
// that honor it: every trial is delivered exactly once, rows match
// the run's PerContract tables bit-for-bit, and a sink alone (no
// PerContract flag) still produces per-contract tables.
func TestBatchSinkExactlyOnce(t *testing.T) {
	s := buildScenario(t, synth.Small(7))
	n := s.YELT.NumTrials
	nc := len(s.Portfolio.Contracts)
	engines := []struct {
		name string
		eng  Engine
	}{
		{"sequential", Sequential{}},
		{"parallel", Parallel{}},
	}
	for _, e := range engines {
		for _, batch := range []int{37, 0} {
			var mu sync.Mutex
			seen := make([]int, n)
			type row struct{ agg, occ [][]float64 }
			rows := map[int]row{}
			cfg := Config{
				Seed:        11,
				Sampling:    true,
				Workers:     3,
				BatchTrials: batch,
				BatchSink: func(lo int, agg, occ [][]float64) {
					mu.Lock()
					defer mu.Unlock()
					for j := range agg[0] {
						seen[lo+j]++
					}
					rows[lo] = row{agg, occ}
				},
			}
			res, err := e.eng.Run(context.Background(), input(s), cfg)
			if err != nil {
				t.Fatalf("%s/%d: %v", e.name, batch, err)
			}
			if res.PerContract == nil {
				t.Fatalf("%s/%d: sink did not imply per-contract tables", e.name, batch)
			}
			for trial, c := range seen {
				if c != 1 {
					t.Fatalf("%s/%d: trial %d delivered %d times", e.name, batch, trial, c)
				}
			}
			for lo, r := range rows {
				if len(r.agg) != nc || len(r.occ) != nc {
					t.Fatalf("%s/%d: batch at %d has %d/%d contract rows", e.name, batch, lo, len(r.agg), len(r.occ))
				}
				for ci := 0; ci < nc; ci++ {
					for j := range r.agg[ci] {
						wantA := res.PerContract[ci].Agg[lo+j]
						wantO := res.PerContract[ci].OccMax[lo+j]
						if math.Float64bits(r.agg[ci][j]) != math.Float64bits(wantA) ||
							math.Float64bits(r.occ[ci][j]) != math.Float64bits(wantO) {
							t.Fatalf("%s/%d: contract %d trial %d sink row differs from result table",
								e.name, batch, ci, lo+j)
						}
					}
				}
			}
		}
	}
}

// TestBatchSinkClearedByMapReduce pins the replay-safety rule: the
// mapreduce engine must not feed a live sink (its failure model
// replays batches) but still produces the per-contract tables the
// sink implies, so callers can replay them afterwards.
func TestBatchSinkClearedByMapReduce(t *testing.T) {
	s := buildScenario(t, synth.Small(7))
	calls := 0
	cfg := Config{
		Seed:     11,
		Sampling: true,
		BatchSink: func(lo int, agg, occ [][]float64) {
			calls++
		},
	}
	res, err := MapReduce{}.Run(context.Background(), input(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("mapreduce fed a live sink %d times", calls)
	}
	if res.PerContract == nil {
		t.Fatal("mapreduce dropped the per-contract tables the sink implies")
	}
}
