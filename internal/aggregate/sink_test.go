package aggregate

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/synth"
	"repro/internal/yelt"
)

// TestBatchSinkExactlyOnce pins the BatchSink contract on every host
// engine: every trial is delivered exactly once, rows match the run's
// PerContract tables bit-for-bit, and a sink alone (no PerContract
// flag) still produces per-contract tables. The MapReduce rows include
// a replicated spill whose every first shard read fails, with
// speculation on: retries, failovers and backups must not replay a
// range into the sink.
func TestBatchSinkExactlyOnce(t *testing.T) {
	s := buildScenario(t, synth.Small(7))
	n := s.YELT.NumTrials
	nc := len(s.Portfolio.Contracts)
	spill := replicatedSource(t, s, 2)
	const seed = 11
	engines := []struct {
		name string
		// setup returns a fresh engine (a fault plan counts its
		// injections) and the source it runs over.
		setup func(t *testing.T) (Engine, yelt.Source)
	}{
		{"sequential", func(*testing.T) (Engine, yelt.Source) { return Sequential{}, s.YELT }},
		{"parallel", func(*testing.T) (Engine, yelt.Source) { return Parallel{}, s.YELT }},
		{"mapreduce", func(*testing.T) (Engine, yelt.Source) { return MapReduce{SplitTrials: 200}, s.YELT }},
		{"mapreduce-chaos", func(t *testing.T) (Engine, yelt.Source) {
			plan, err := faultinject.Parse("shard=*@1", seed)
			if err != nil {
				t.Fatal(err)
			}
			return MapReduce{SplitTrials: 200, MaxAttempts: 5, Speculate: true, Faults: plan}, spill
		}},
	}
	for _, e := range engines {
		for _, batch := range []int{37, 0} {
			var mu sync.Mutex
			seen := make([]int, n)
			type row struct{ agg, occ [][]float64 }
			rows := map[int]row{}
			cfg := Config{
				Seed:        seed,
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
			eng, src := e.setup(t)
			res, err := eng.Run(context.Background(),
				&Input{Source: src, ELTs: s.ELTs, Portfolio: s.Portfolio}, cfg)
			if err != nil {
				t.Fatalf("%s/%d: %v", e.name, batch, err)
			}
			if mr, ok := eng.(MapReduce); ok && mr.Faults != nil && mr.Faults.Injected() == 0 {
				t.Fatalf("%s/%d: plan injected nothing", e.name, batch)
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

// A sink implies per-contract tables, so the device engine, which
// cannot produce them, refuses a sink exactly as it refuses
// PerContract, instead of running and never calling it.
func TestBatchSinkWithoutPerContractRefused(t *testing.T) {
	s := buildScenario(t, synth.Small(7))
	calls := 0
	cfg := Config{Seed: 11, BatchSink: func(int, [][]float64, [][]float64) { calls++ }}
	eng := &Chunked{}
	_, err := eng.Run(context.Background(), input(s), cfg)
	if !errors.Is(err, ErrUnsupported) || !strings.Contains(err.Error(), eng.Name()+": per-contract output") {
		t.Fatalf("%s given a sink: err = %v, want ErrUnsupported for per-contract output", eng.Name(), err)
	}
	if calls != 0 {
		t.Fatalf("a refused run called the sink %d times", calls)
	}
}
