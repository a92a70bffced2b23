package aggregate

import (
	"context"
	"fmt"

	"repro/internal/lossindex"
	"repro/internal/stream"
	"repro/internal/yelt"
)

// ByContract is the alternative parallel decomposition: work is
// partitioned by contract instead of by trial range. The paper's
// companion engine chose trial-parallelism; this engine exists to
// justify that choice empirically — with tens of thousands of
// contracts it load-balances well, but per-contract memory traffic
// repeats the whole YELT scan per contract, so on books with few
// contracts it underutilizes cores and trashes cache. See
// BenchmarkByContractVsByTrial.
//
// Materialized inputs use the contract-major form: one worker per
// contract, each scanning every trial through zero-copy views.
// Streaming inputs use the batch-major form: the outer loop streams
// each trial batch exactly once and the contract workers share that
// one resident batch — the per-batch cache that trades the
// decomposition's repeated regeneration (once per contract, plus the
// final occurrence pass) back down to a single generation pass. Both
// forms hold every contract's dense row → mean-loss vector resident
// (Flat.DenseMeansAll: projected from the flat layout in one entry
// sweep, so the per-occurrence probe is two array indexings;
// contracts × rows floats, small next to the contracts × trials partial
// tables the decomposition already holds).
// TestByContractStreamingSingleGeneration pins the
// single-pass claim via Generator.Streamed.
//
// Results are identical to the other engines in expected mode; in
// sampling mode they are *internally* consistent but differ from the
// trial-ordered engines, because draws interleave by contract rather
// than by occurrence. ByContract therefore refuses sampling mode
// rather than silently produce a differently-ordered stochastic
// result.
type ByContract struct{}

// Name implements Engine.
func (ByContract) Name() string { return "by-contract" }

// runContractBatch walks one trial batch for one contract, writing
// annual recoveries into agg[base+i] and — when occ is non-nil, i.e.
// per-contract output was requested — per-occurrence maxima into
// occ[base+i]. It is the per-contract trial kernel shared by the
// contract-major and batch-major forms, so their arithmetic (and
// therefore their results) cannot diverge.
func runContractBatch(in *Input, ci int, means []float64, layerSums []float64, b *yelt.Table, base int, agg, occ []float64) {
	idx := in.Flat.Index()
	c := &in.Portfolio.Contracts[ci]
	for i := 0; i < b.NumTrials; i++ {
		trial := base + i
		for li := range layerSums {
			layerSums[li] = 0
		}
		var occMax float64
		for _, o := range b.OccurrencesOf(i) {
			row := idx.Row(o.EventID)
			if row < 0 || means[row] <= 0 {
				continue
			}
			var occTotal float64
			for li := range c.Layers {
				r := c.Layers[li].ApplyOccurrence(means[row])
				layerSums[li] += r
				occTotal += r
			}
			if occTotal > occMax {
				occMax = occTotal
			}
		}
		var annual float64
		for li := range c.Layers {
			annual += c.Layers[li].ApplyAggregate(layerSums[li])
		}
		agg[trial] = annual
		if occ != nil {
			occ[trial] = occMax
		}
	}
}

// finishByContract merges the per-contract partials into the result:
// portfolio agg is the contract-order sum; per-contract tables copy
// straight over. Portfolio OccMax is NOT derivable from per-contract
// maxima (they only bound it from below) — callers fill it with
// expectedOccMax.
func finishByContract(in *Input, res *Result, partialAgg, partialOcc [][]float64) {
	for _, pa := range partialAgg {
		for t, v := range pa {
			res.Portfolio.Agg[t] += v
		}
	}
	if res.PerContract != nil {
		for ci := range partialAgg {
			copy(res.PerContract[ci].Agg, partialAgg[ci])
			copy(res.PerContract[ci].OccMax, partialOcc[ci])
		}
	}
}

// expectedOccMax writes each batch trial's exact portfolio OccMax —
// the maximum over the year's *events* of the whole-book occurrence
// recovery — into out[base+i]. In expected mode (the only mode this
// engine accepts) that recovery is a build-time constant per event:
// Flat.ExpSpan's row sum, the same value the trial kernel's dense
// expected path reads, so the pass needs no kernel and is bit-identical
// to the trial-ordered engines.
func expectedOccMax(fx *lossindex.Flat, b *yelt.Table, base int, out []float64) {
	for i := 0; i < b.NumTrials; i++ {
		var occMax float64
		for _, o := range b.OccurrencesOf(i) {
			if _, _, s := fx.ExpSpan(o.EventID); s > occMax {
				occMax = s
			}
		}
		out[base+i] = occMax
	}
}

// Run implements Engine.
func (e ByContract) Run(ctx context.Context, in *Input, cfg Config) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sampling {
		return nil, fmt.Errorf("%w: %s: sampling", ErrUnsupported, e.Name())
	}
	if _, err := in.EnsureFlat(); err != nil {
		return nil, err
	}
	if in.streaming() {
		return e.runBatchMajor(ctx, in, cfg)
	}
	return e.runContractMajor(ctx, in, cfg)
}

// runContractMajor is the materialized form: one worker per contract,
// each scanning the whole trial range through zero-copy view batches.
func (ByContract) runContractMajor(ctx context.Context, in *Input, cfg Config) (*Result, error) {
	src := in.src()
	n := src.TrialCount()
	contracts := in.Portfolio.Contracts
	res := newResult(in, cfg)
	rt := trackerFor(in)

	partialAgg := make([][]float64, len(contracts))
	partialOcc := make([][]float64, len(contracts))
	means := in.Flat.DenseMeansAll()

	err := stream.ForEach(ctx, len(contracts), cfg.Workers, func(ctx context.Context, ci int) error {
		agg := make([]float64, n)
		// Per-contract occurrence maxima are only an output when
		// per-contract tables were requested; skip the n-length arrays
		// otherwise (the portfolio OccMax comes from its own pass).
		var occ []float64
		if cfg.PerContract {
			occ = make([]float64, n)
		}
		layerSums := make([]float64, len(contracts[ci].Layers))
		err := streamRange(ctx, src, stream.Range{Lo: 0, Hi: n}, cfg.batchTrials(), rt, ci, &yelt.Table{},
			func(b *yelt.Table, base int) error {
				runContractBatch(in, ci, means[ci], layerSums, b, base, agg, occ)
				return nil
			})
		if err != nil {
			return err
		}
		partialAgg[ci] = agg
		partialOcc[ci] = occ
		return nil
	})
	if err != nil {
		return nil, err
	}
	finishByContract(in, res, partialAgg, partialOcc)

	// One more trial-ordered pass for the exact portfolio OccMax — cheap
	// relative to the per-contract scans.
	err = streamRange(ctx, src, stream.Range{Lo: 0, Hi: n}, cfg.batchTrials(), rt, -1, &yelt.Table{},
		func(b *yelt.Table, base int) error {
			expectedOccMax(in.Flat, b, base, res.Portfolio.OccMax)
			return nil
		})
	if err != nil {
		return nil, err
	}
	finishResident(in, res, rt)
	return res, nil
}

// runBatchMajor is the streaming form: stream each trial batch exactly
// once and fan the contract workers out over the shared resident batch,
// so a Generator source derives every trial once instead of once per
// contract (and the exact portfolio-OccMax pass reuses the same batch
// rather than a second scan). Per-trial arithmetic and merge order are
// identical to the contract-major form, so results are bit-identical.
func (ByContract) runBatchMajor(ctx context.Context, in *Input, cfg Config) (*Result, error) {
	src := in.src()
	n := src.TrialCount()
	contracts := in.Portfolio.Contracts
	res := newResult(in, cfg)
	rt := trackerFor(in)

	means := in.Flat.DenseMeansAll()

	partialAgg := make([][]float64, len(contracts))
	partialOcc := make([][]float64, len(contracts))
	layerSums := make([][]float64, len(contracts))
	for ci := range contracts {
		partialAgg[ci] = make([]float64, n)
		if cfg.PerContract {
			partialOcc[ci] = make([]float64, n)
		}
		layerSums[ci] = make([]float64, len(contracts[ci].Layers))
	}

	err := streamRange(ctx, src, stream.Range{Lo: 0, Hi: n}, cfg.batchTrials(), rt, 0, &yelt.Table{},
		func(b *yelt.Table, base int) error {
			// One generated batch, shared read-only by every contract
			// worker; each worker writes its own contract's slots.
			err := stream.ForEach(ctx, len(contracts), cfg.Workers, func(_ context.Context, ci int) error {
				runContractBatch(in, ci, means[ci], layerSums[ci], b, base, partialAgg[ci], partialOcc[ci])
				return nil
			})
			if err != nil {
				return err
			}
			// Exact portfolio OccMax over the same resident batch — no
			// second generation pass.
			expectedOccMax(in.Flat, b, base, res.Portfolio.OccMax)
			return nil
		})
	if err != nil {
		return nil, err
	}
	finishByContract(in, res, partialAgg, partialOcc)
	finishResident(in, res, rt)
	return res, nil
}
