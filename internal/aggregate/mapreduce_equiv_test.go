package aggregate

import (
	"context"
	"testing"

	"repro/internal/diskstore"
	"repro/internal/lossindex"
	"repro/internal/synth"
	"repro/internal/yelt"
)

// The MapReduce engine's correctness contract: bit-identical to
// Sequential over the materialized table, for every trial source the
// engine can map over (materialized table, fused generator, spilled
// disk shards), with sampling on and off, across seeds, and for split
// sizes that do and do not divide the trial count. Split and batch
// granularity must only change scheduling, never results.

// spilledSource writes the scenario's YELT into a fresh diskstore with
// a shard count chosen to not align with any split or batch size used
// below, and returns the DiskSource over it.
func spilledSource(t *testing.T, s *synth.Scenario) *yelt.DiskSource {
	t.Helper()
	store, err := diskstore.Create(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := yelt.Spill(context.Background(), s.YELT, store, "yelt", 5, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestMapReduceEquivalenceMatrix(t *testing.T) {
	s := buildScenario(t, synth.Small(61))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	disk := spilledSource(t, s)
	gen, err := s.YELTGenerator()
	if err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name  string
		input func() *Input
	}{
		{"table", func() *Input {
			return &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}
		}},
		{"generator", func() *Input {
			return &Input{Source: gen, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}
		}},
		{"disk", func() *Input {
			return &Input{Source: disk, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}
		}},
	}
	// 2000-trial scenario: single-trial splits, two non-divisors, an
	// exact divisor, and one split larger than the trial count.
	splitSizes := []int{1, 7, 500, 997, 4096}

	for _, sampling := range []bool{false, true} {
		for _, seed := range []uint64{13, 977} {
			cfg := Config{Seed: seed, Sampling: sampling, PerContract: true, Workers: 3, BatchTrials: 311}
			matIn := &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}
			want, err := Sequential{}.Run(context.Background(), matIn, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range sources {
				for _, split := range splitSizes {
					eng := MapReduce{SplitTrials: split}
					got, err := eng.Run(context.Background(), src.input(), cfg)
					if err != nil {
						t.Fatalf("%s split=%d sampling=%v: %v", src.name, split, sampling, err)
					}
					name := "mapreduce/" + src.name
					if sampling {
						name += "/sampling"
					}
					resultsBitIdentical(t, name, want, got)
				}
			}
		}
	}
}

// A disk-backed run must report a bounded streaming envelope, not the
// materialized table footprint.
func TestMapReduceDiskSourceResidentBytes(t *testing.T) {
	s := buildScenario(t, synth.Small(63))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	disk := spilledSource(t, s)
	in := &Input{Source: disk, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}
	res, err := MapReduce{SplitTrials: 200}.Run(context.Background(), in,
		Config{Workers: 2, BatchTrials: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakResidentBytes <= 0 {
		t.Fatal("disk-backed run reported no resident bytes")
	}
	if res.PeakResidentBytes*4 >= s.YELT.SizeBytes() {
		t.Fatalf("disk-backed peak %d not well below table %d", res.PeakResidentBytes, s.YELT.SizeBytes())
	}
	if disk.Scanned() == 0 {
		t.Fatal("disk source was never scanned")
	}
}

func TestMapReduceCancellation(t *testing.T) {
	s := buildScenario(t, synth.Small(65))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (MapReduce{}).Run(ctx, input(s), Config{}); err == nil {
		t.Fatal("cancelled run should error")
	}
}

func TestMapReduceValidation(t *testing.T) {
	if _, err := (MapReduce{}).Run(context.Background(), &Input{}, Config{}); err == nil {
		t.Fatal("empty input should fail validation")
	}
}
