package aggregate

import (
	"context"
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/lossindex"
	"repro/internal/stream"
	"repro/internal/yelt"
	"repro/internal/ylt"
)

// Chunked runs the occurrence-terms portfolio aggregation on the
// simulated many-core device, staging occurrence data and the
// portfolio loss vectors through per-block shared memory — the
// paper's "chunking ... utilising shared and constant memory as much
// as possible" (§II). Modeled device cycles are captured in LastStats
// for the E4 ablation; the Naive field switches staging off to
// quantify exactly what chunking buys.
//
// Device memory uses two lifetimes: the portfolio loss vectors are
// study-resident (uploaded once per run, surviving every streaming
// batch pass via gpusim.FreeBatch), while occurrences, offsets and
// output tables cycle per batch. LastStats separates the two transfer
// flows (ResidentTransferFloats vs TransferFloats), so the
// steady-state per-batch link cost excludes the loss vectors.
type Chunked struct {
	// Device is the simulated accelerator; nil allocates a default
	// device sized for the input.
	Device *gpusim.Device
	// Naive disables shared-memory staging: every access goes to
	// global memory. Results are identical; modeled cost is not.
	Naive bool
	// TrialsPerBlock bounds trials per device block; <= 0 derives it
	// from the device's thread width.
	TrialsPerBlock int
	// LastStats holds the device cost counters of the most recent run.
	LastStats gpusim.Stats

	// Loss-vector cache: the vectors are a pure projection of the flat
	// kernel layout, which Input memoizes per (ELTs, Portfolio), so
	// re-running the engine over the same book (as the ablations do)
	// reuses them without re-sweeping the entries. Like Input's lazy
	// Index/Flat, this makes a shared *Chunked unsafe for concurrent
	// Run calls (LastStats already was).
	vecFlat *lossindex.Flat
	aggVec  []float64
	occVec  []float64
}

// recoveryVectors returns the per-row loss vectors for fx, projecting
// and caching them on first use per layout.
func (c *Chunked) recoveryVectors(fx *lossindex.Flat) (aggVec, occVec []float64) {
	if c.vecFlat != fx {
		c.aggVec, c.occVec = fx.DeviceVectors()
		c.vecFlat = fx
	}
	return c.aggVec, c.occVec
}

// Name implements Engine.
func (c *Chunked) Name() string {
	if c.Naive {
		return "device-naive"
	}
	return "device-chunked"
}

// Run implements Engine. Results agree with the Sequential engine in
// expected mode (Sampling=false) for portfolios whose layers carry
// only occurrence terms, up to floating-point re-association (the
// device kernel folds shares into a per-event vector before the trial
// sweep; the host engines fold them after).
//
// Streaming inputs are processed as a sequence of device passes, one
// per trial batch: the loss vectors upload once into the device's
// study-resident arena, then each pass uploads only the batch's
// occurrences and offsets, launches the grid, and downloads the
// batch's YLT rows — so neither host nor device ever holds the full
// YELT, and the per-batch link traffic excludes the loss vectors.
// Per-trial results are bit-identical to the single-upload
// materialized path; only the modeled transfer counters differ.
func (c *Chunked) Run(ctx context.Context, in *Input, cfg Config) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sampling {
		return nil, fmt.Errorf("%w: %s: sampling", ErrUnsupported, c.Name())
	}
	if cfg.perContract() {
		return nil, fmt.Errorf("%w: %s: per-contract output", ErrUnsupported, c.Name())
	}
	for _, ct := range in.Portfolio.Contracts {
		for _, l := range ct.Layers {
			if l.AggRetention != 0 || l.AggLimit != 0 {
				return nil, fmt.Errorf("%w: %s: annual aggregate terms on contract %d", ErrUnsupported, c.Name(), ct.ID)
			}
		}
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	default:
	}

	// The portfolio's per-row recovery vectors (ELT preprocessing, done
	// once per portfolio, not per trial): aggVec folds each layer's
	// share in, occVec is the share-free occurrence recovery that
	// drives OccMax — mirroring the host kernel's accounting exactly.
	// They are projected straight from the flat kernel layout's pre-applied
	// ExpRec column (one linear sweep, bit-identical to the nested
	// Contract walk it replaced — see lossindex.DeviceVectors) and
	// cached across runs. Working in the index's dense row space
	// (loss-bearing events only) instead of raw event-ID space shrinks
	// the vectors the kernel sweeps through shared memory.
	fx, err := in.EnsureFlat()
	if err != nil {
		return nil, err
	}
	idx := fx.Index()
	numRows := idx.NumRows()
	aggVec, occVec := c.recoveryVectors(fx)

	src := in.src()
	numTrials := src.TrialCount()
	res := &Result{Portfolio: ylt.New("portfolio", numTrials)}
	rt := trackerFor(in)

	// Materialized inputs run as one device pass over the whole table
	// (today's E4 shape); streaming sources go batch by batch.
	batchT := numTrials
	if in.streaming() {
		batchT = cfg.batchTrials()
	}

	dev := c.Device
	devOwned := dev == nil
	devCap := 0
	var carried gpusim.Stats
	if !devOwned {
		dev.FreeAll()
		dev.ResetStats()
	}
	var aggVecBuf, occVecBuf gpusim.Buffer
	residentUp := false
	var hostOcc, hostOff []float64

	err = streamRange(ctx, src, stream.Range{Lo: 0, Hi: numTrials}, batchT, rt, 0, &yelt.Table{}, func(b *yelt.Table, base int) error {
		bn := b.NumTrials
		bOccs := len(b.Occs)
		need := 2*numRows + bOccs + (bn + 1) + 2*bn + 1024
		if devOwned && (dev == nil || devCap < need) {
			// Grow the owned device, carrying the accumulated cost-model
			// counters across the replacement. The fresh device has an
			// empty arena, so the resident vectors re-upload below.
			if dev != nil {
				carried = carried.Add(dev.Stats())
			}
			devCap = need
			dev = gpusim.NewDevice(gpusim.DefaultConfig(), devCap)
			residentUp = false
		}

		if !residentUp {
			// First pass on this device: lay down the study-resident
			// arena and upload the loss vectors once. They survive every
			// subsequent FreeBatch below — the two-lifetime split that
			// keeps the steady-state batch traffic to occurrences,
			// offsets and outputs only.
			dev.FreeAll()
			var err error
			if aggVecBuf, err = dev.AllocResident(numRows); err != nil {
				return err
			}
			if occVecBuf, err = dev.AllocResident(numRows); err != nil {
				return err
			}
			if err = dev.CopyToDevice(aggVecBuf, aggVec); err != nil {
				return err
			}
			if err = dev.CopyToDevice(occVecBuf, occVec); err != nil {
				return err
			}
			residentUp = true
		} else {
			dev.FreeBatch()
		}

		// Per-batch upload: occurrence index rows (as float64 — exact
		// below 2^53; -1 marks loss-free events, resolved on the host so
		// the device never probes the event-id table), per-trial
		// offsets, and the output tables.
		occBuf, err := dev.Alloc(bOccs)
		if err != nil {
			return err
		}
		offBuf, err := dev.Alloc(bn + 1)
		if err != nil {
			return err
		}
		outAgg, err := dev.Alloc(bn)
		if err != nil {
			return err
		}
		outMax, err := dev.Alloc(bn)
		if err != nil {
			return err
		}

		hostOcc = hostOcc[:0]
		for _, o := range b.Occs {
			hostOcc = append(hostOcc, float64(idx.Row(o.EventID)))
		}
		if err := dev.CopyToDevice(occBuf, hostOcc); err != nil {
			return err
		}
		hostOff = hostOff[:0]
		for _, o := range b.Offsets {
			hostOff = append(hostOff, float64(o))
		}
		if err := dev.CopyToDevice(offBuf, hostOff); err != nil {
			return err
		}

		devCfg := dev.Config()
		tpb := c.TrialsPerBlock
		if tpb <= 0 {
			tpb = devCfg.ThreadsPerBlock
		}
		grid := (bn + tpb - 1) / tpb
		kernel := c.buildKernel(bn, tpb, devCfg.SharedMemPerBlock, numRows,
			occBuf, offBuf, aggVecBuf, occVecBuf, outAgg, outMax)
		if err := dev.Launch(grid, kernel); err != nil {
			return err
		}
		if err := dev.CopyFromDevice(outAgg, res.Portfolio.Agg[base:base+bn]); err != nil {
			return err
		}
		return dev.CopyFromDevice(outMax, res.Portfolio.OccMax[base:base+bn])
	})
	if err != nil {
		return nil, err
	}
	c.LastStats = carried.Add(dev.Stats())
	finishResident(in, res, rt)
	return res, nil
}

// buildKernel returns the per-pass device kernel over one trial batch
// of bn trials: the naive global-memory form, or the chunked
// shared-memory form staging occurrences and loss-vector chunks.
func (c *Chunked) buildKernel(bn, tpb, shared, numRows int, occBuf, offBuf, aggVecBuf, occVecBuf, outAgg, outMax gpusim.Buffer) func(*gpusim.BlockCtx) {
	// naiveTrials runs trials [lo, hi) straight from global memory.
	naiveTrials := func(b *gpusim.BlockCtx, lo, hi int) {
		for trial := lo; trial < hi; trial++ {
			start := int(b.LoadGlobal(offBuf, trial))
			end := int(b.LoadGlobal(offBuf, trial+1))
			var agg, max float64
			for i := start; i < end; i++ {
				rid := int(b.LoadGlobal(occBuf, i))
				b.AddArith(1)
				if rid < 0 {
					// Event never produced a loss on any contract: no
					// index row, nothing to add (mirrors the host
					// engines' empty index probe).
					continue
				}
				agg += b.LoadGlobal(aggVecBuf, rid)
				o := b.LoadGlobal(occVecBuf, rid)
				b.AddArith(2)
				if o > max {
					max = o
				}
			}
			b.StoreGlobal(outAgg, trial, agg)
			b.StoreGlobal(outMax, trial, max)
		}
	}
	if c.Naive {
		return func(b *gpusim.BlockCtx) {
			lo := b.BlockID * tpb
			naiveTrials(b, lo, min(lo+tpb, bn))
		}
	}
	// Chunked kernel: stage the block's occurrences into shared
	// memory once, then sweep the loss vectors through the rest of
	// shared memory in chunks, probing the staged occurrences per
	// chunk. Per-trial accumulators live in "registers" (locals).
	return func(b *gpusim.BlockCtx) {
		lo := b.BlockID * tpb
		hi := min(lo+tpb, bn)
		nTrials := hi - lo
		start := int(b.LoadGlobal(offBuf, lo))
		end := int(b.LoadGlobal(offBuf, hi))
		nOccs := end - start

		// Shared layout: [occurrences][trial bounds][vector chunk×2].
		occBase := 0
		boundBase := nOccs
		chunkBase := nOccs + nTrials + 1
		if chunkBase > shared {
			// The block's occurrences don't even fit in shared
			// memory: degrade to the naive global path for this
			// block rather than faulting — the shape a real kernel
			// guards with a launch-bounds check.
			naiveTrials(b, lo, hi)
			return
		}
		agg := make([]float64, nTrials)
		max := make([]float64, nTrials)
		chunkCap := (shared - chunkBase) / 2
		if chunkCap < 64 {
			// Degenerate: occurrences crowd out the staging area;
			// fall back to direct global probes for this block.
			chunkCap = 0
		}
		b.StageToShared(occBuf, start, end, occBase)
		b.StageToShared(offBuf, lo, hi+1, boundBase)

		if chunkCap == 0 {
			for t := 0; t < nTrials; t++ {
				s := int(b.LoadShared(boundBase+t)) - start
				e := int(b.LoadShared(boundBase+t+1)) - start
				for i := s; i < e; i++ {
					rid := int(b.LoadShared(occBase + i))
					b.AddArith(1)
					if rid < 0 {
						continue
					}
					agg[t] += b.LoadGlobal(aggVecBuf, rid)
					o := b.LoadGlobal(occVecBuf, rid)
					b.AddArith(2)
					if o > max[t] {
						max[t] = o
					}
				}
			}
		} else {
			for cLo := 0; cLo < numRows; cLo += chunkCap {
				cHi := cLo + chunkCap
				if cHi > numRows {
					cHi = numRows
				}
				n := cHi - cLo
				b.StageToShared(aggVecBuf, cLo, cHi, chunkBase)
				b.StageToShared(occVecBuf, cLo, cHi, chunkBase+n)
				for t := 0; t < nTrials; t++ {
					s := int(b.LoadShared(boundBase+t)) - start
					e := int(b.LoadShared(boundBase+t+1)) - start
					for i := s; i < e; i++ {
						rid := int(b.LoadShared(occBase + i))
						b.AddArith(1)
						if rid < cLo || rid >= cHi {
							continue
						}
						agg[t] += b.LoadShared(chunkBase + (rid - cLo))
						o := b.LoadShared(chunkBase + n + (rid - cLo))
						b.AddArith(2)
						if o > max[t] {
							max[t] = o
						}
					}
				}
			}
		}
		for t := 0; t < nTrials; t++ {
			b.StoreGlobal(outAgg, lo+t, agg[t])
			b.StoreGlobal(outMax, lo+t, max[t])
		}
	}
}
