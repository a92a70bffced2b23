package aggregate

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/elt"
	"repro/internal/rng"
)

// LegacyLookup is the oracle: single-threaded, one trial at a time,
// one O(log n) binary search per (occurrence × contract) into the
// per-contract ELTs and the layers package's own term arithmetic — the
// random-access pattern the paper argues against, and the shape all
// engines had before the pre-joined loss index landed. It reads neither
// the loss index nor the flat layout and shares no loop with the trial
// kernel, which is why every engine must reproduce its output
// bit-for-bit for the same (input, seed): the equivalence suites, the
// hand-computed book and bench/'s set-up check all compare against it.
//
// Do not use it in production paths.
type LegacyLookup struct{}

// Name implements Engine.
func (LegacyLookup) Name() string { return "legacy-lookup" }

// legacyTrial computes one trial year: occurrences in YELT (day)
// order, contracts in portfolio order within each, a binary-search
// Lookup per pair, all sampling draws in that order from the trial's
// own stream — the ordering contract the kernel reproduces. layerAgg
// is the caller's [contract][layer] scratch of annual
// occurrence-recovery sums.
func legacyTrial(
	occs []uint32,
	in *Input,
	cfg Config,
	st *rng.Stream,
	layerAgg [][]float64,
	perContract []float64,
	perContractOcc []float64,
) (agg, occMax float64) {
	contracts := in.Portfolio.Contracts
	for _, la := range layerAgg {
		for li := range la {
			la[li] = 0
		}
	}

	for _, event := range occs {
		var portfolioOccLoss float64
		for ci := range contracts {
			c := &contracts[ci]
			rec, ok := in.ELTs[c.ELTIndex].Lookup(event)
			if !ok || rec.MeanLoss <= 0 {
				continue
			}
			loss := rec.MeanLoss
			if cfg.Sampling {
				loss = elt.SampleLoss(st, rec)
			}
			var contractOcc float64
			for li := range c.Layers {
				r := c.Layers[li].ApplyOccurrence(loss)
				layerAgg[ci][li] += r
				contractOcc += r
			}
			portfolioOccLoss += contractOcc
			if perContractOcc != nil && contractOcc > perContractOcc[ci] {
				perContractOcc[ci] = contractOcc
			}
		}
		if portfolioOccLoss > occMax {
			occMax = portfolioOccLoss
		}
	}

	for ci := range contracts {
		c := &contracts[ci]
		var contractAnnual float64
		for li := range c.Layers {
			contractAnnual += c.Layers[li].ApplyAggregate(layerAgg[ci][li])
		}
		agg += contractAnnual
		if perContract != nil {
			perContract[ci] += contractAnnual
		}
	}
	return agg, occMax
}

// Run implements Engine. The oracle predates the streaming Source
// abstraction and stays pinned to the materialized form.
func (LegacyLookup) Run(ctx context.Context, in *Input, cfg Config) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.YELT == nil || in.Source != nil {
		return nil, errors.New("aggregate: legacy lookup requires a materialized YELT input")
	}
	if in.Portfolio.DeclaresReinstatements() {
		return nil, fmt.Errorf("%w: legacy-lookup: reinstatement terms", ErrUnsupported)
	}
	res := newResult(in, cfg)
	nc := len(in.Portfolio.Contracts)
	layerAgg := make([][]float64, nc)
	for ci, c := range in.Portfolio.Contracts {
		layerAgg[ci] = make([]float64, len(c.Layers))
	}
	perContract := make([]float64, nc)
	perContractOcc := make([]float64, nc)
	const checkEvery = 4096
	for trial := 0; trial < in.YELT.NumTrials; trial++ {
		if trial%checkEvery == 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
			}
		}
		st := rng.NewStream(cfg.Seed, uint64(trial))
		var pc, pco []float64
		if res.PerContract != nil {
			for i := range perContract {
				perContract[i] = 0
				perContractOcc[i] = 0
			}
			pc, pco = perContract, perContractOcc
		}
		agg, occMax := legacyTrial(in.YELT.OccurrencesOf(trial), in, cfg, st, layerAgg, pc, pco)
		res.Portfolio.Agg[trial] = agg
		res.Portfolio.OccMax[trial] = occMax
		if res.PerContract != nil {
			for ci := 0; ci < nc; ci++ {
				res.PerContract[ci].Agg[trial] = perContract[ci]
				res.PerContract[ci].OccMax[trial] = perContractOcc[ci]
			}
		}
	}
	return res, nil
}
