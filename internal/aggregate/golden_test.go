package aggregate

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/synth"
)

// The golden digests were computed at 8b424c6, the commit before the
// indexed and single-trial flat kernels were deleted, so they pin every
// stage-2 number across commits and not only across the engines inside
// one binary. One constant per mode: every engine and both source kinds
// must land on it.
//
// The two sampling constants were re-pinned by PR 23, which moved
// rng.Beta from two polar-normal Marsaglia-Tsang gammas with a math.Pow
// boost to the same gammas over ziggurat primitives (0x481a0a69cd5b122c
// and 0x5d0d1c3c0efdd2a4 before, from 8b424c6). The expected-mode pair
// draws nothing and did not move, which is that PR's proof that the
// book is the same one (DESIGN.md, "Changing the numbers on purpose").
const (
	goldenYLTExpected       = 0x77419432583711b0
	goldenYLTSampling       = 0xf3cc8e6e05e787c4
	goldenReinstYLTExpected = 0x07585c3884668236
	goldenReinstYLTSampling = 0x225d3e978ac7d7ce
)

// digestFloats is FNV-1a over the float bits of the columns, in order.
func digestFloats(cols ...[]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, col := range cols {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(col)))
		h.Write(buf[:])
		for _, v := range col {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func digestResult(res *Result) uint64 {
	cols := [][]float64{res.Portfolio.Agg, res.Portfolio.OccMax}
	for _, t := range res.PerContract {
		cols = append(cols, t.Agg, t.OccMax)
	}
	return digestFloats(cols...)
}

func TestGoldenYLTDigest(t *testing.T) {
	s := buildScenario(t, synth.Small(20261003))
	ctx := context.Background()
	if ref, err := (LegacyLookup{}).Run(ctx, input(s), Config{}); err != nil || ref.Portfolio.Mean() <= 0 {
		t.Fatalf("golden book is degenerate; the digest would pin nothing: %v", err)
	}
	engines := []struct {
		name    string
		engine  Engine
		workers int
	}{
		{"sequential", Sequential{}, 0},
		{"parallel", Parallel{}, 3},
		{"mapreduce", MapReduce{SplitTrials: 401}, 0},
	}
	for _, sampling := range []bool{false, true} {
		want, wantReinst := uint64(goldenYLTExpected), uint64(goldenReinstYLTExpected)
		if sampling {
			want, wantReinst = goldenYLTSampling, goldenReinstYLTSampling
		}
		for _, e := range engines {
			for _, streaming := range []bool{false, true} {
				name := fmt.Sprintf("%s/sampling=%v/streaming=%v", e.name, sampling, streaming)
				in := input(s)
				if streaming {
					in = streamingInput(t, s, nil)
				}
				res, err := e.engine.Run(ctx, in, Config{Seed: 77, Sampling: sampling, PerContract: true, Workers: e.workers})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(res.PerContract) != len(s.Portfolio.Contracts) {
					t.Fatalf("%s: %d per-contract tables", name, len(res.PerContract))
				}
				if got := digestResult(res); got != want {
					t.Errorf("%s: YLT changed: digest %#x, want %#x", name, got, want)
				}
			}
		}
		// The same book under layers.StandardReinstatements, through
		// every host engine: the portfolio YLT and the premium column.
		book := reinstInput(input(s), nil)
		for _, e := range engines {
			res, err := e.engine.Run(ctx, book, Config{Seed: 77, Sampling: sampling, Workers: e.workers})
			if err != nil {
				t.Fatalf("%s/reinstatements/sampling=%v: %v", e.name, sampling, err)
			}
			if got := digestFloats(res.Portfolio.Agg, res.Portfolio.OccMax, res.Premium); got != wantReinst {
				t.Errorf("%s/reinstatements/sampling=%v: YLT changed: digest %#x, want %#x", e.name, sampling, got, wantReinst)
			}
		}
	}
}
