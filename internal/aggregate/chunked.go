package aggregate

import (
	"context"
	"fmt"

	"repro/internal/gpusim"
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
// A run is one device pass: the whole trial source is read once, a
// device sized for it is made, and the loss vectors, occurrences and
// offsets go up, the grid runs and the YLT comes down once each.
type Chunked struct {
	// Naive disables shared-memory staging: every access goes to
	// global memory. Results are identical; modeled cost is not.
	Naive bool
	// TrialsPerBlock bounds trials per device block; <= 0 means the
	// device's thread width, gpusim.ThreadsPerBlock.
	TrialsPerBlock int
	// LastStats holds the device cost counters of the most recent run.
	LastStats gpusim.Stats
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
// sweep; the host engines fold them after). A streaming source is read
// whole, so Config.BatchTrials does not apply and PeakResidentBytes is
// the full table's footprint.
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
			if l.Reinstatements != nil {
				return nil, fmt.Errorf("%w: %s: reinstatement terms on contract %d", ErrUnsupported, c.Name(), ct.ID)
			}
			if l.AggRetention != 0 || l.AggLimit != 0 {
				return nil, fmt.Errorf("%w: %s: annual aggregate terms on contract %d", ErrUnsupported, c.Name(), ct.ID)
			}
		}
	}
	// A materialized table's ReadTrials ignores its context, so poll it
	// here.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The portfolio's per-row recovery vectors (ELT preprocessing, done
	// once per portfolio, not per trial): aggVec folds each layer's
	// share in, occVec is the share-free occurrence recovery that
	// drives OccMax — mirroring the host kernel's accounting exactly.
	// They are projected straight from the flat kernel layout's
	// pre-applied ExpRec column (one linear sweep, bit-identical to the
	// nested Contract walk it replaced — see lossindex.DeviceVectors).
	// Working in the index's dense row space (loss-bearing events only)
	// instead of raw event-ID space shrinks the vectors the kernel
	// sweeps through shared memory.
	fx, err := in.EnsureFlat()
	if err != nil {
		return nil, err
	}
	idx := fx.Index()
	numRows := idx.NumRows()
	aggVec, occVec := fx.DeviceVectors()

	src := in.src()
	n := src.TrialCount()
	tab, err := src.ReadTrials(ctx, 0, n, &yelt.Table{})
	if err != nil {
		return nil, err
	}
	res := &Result{Portfolio: ylt.New("portfolio", n), PeakResidentBytes: tab.SizeBytes()}

	dev := gpusim.NewDevice(gpusim.DefaultConfig(), 2*numRows+len(tab.Occs)+(n+1)+2*n+1024)
	var bufs [6]gpusim.Buffer
	for i, size := range []int{numRows, numRows, len(tab.Occs), n + 1, n, n} {
		if bufs[i], err = dev.Alloc(size); err != nil {
			return nil, err
		}
	}
	aggVecBuf, occVecBuf, occBuf, offBuf, outAgg, outMax := bufs[0], bufs[1], bufs[2], bufs[3], bufs[4], bufs[5]

	// Occurrences go up as index rows (as float64 — exact below 2^53;
	// -1 marks loss-free events, resolved on the host so the device
	// never probes the event-id table), then the per-trial offsets.
	hostOcc := make([]float64, len(tab.Occs))
	for i, event := range tab.Occs {
		hostOcc[i] = float64(idx.Row(event))
	}
	hostOff := make([]float64, len(tab.Offsets))
	for i, o := range tab.Offsets {
		hostOff[i] = float64(o)
	}
	for _, up := range []struct {
		buf  gpusim.Buffer
		data []float64
	}{{aggVecBuf, aggVec}, {occVecBuf, occVec}, {occBuf, hostOcc}, {offBuf, hostOff}} {
		if err := dev.CopyToDevice(up.buf, up.data); err != nil {
			return nil, err
		}
	}

	tpb := c.TrialsPerBlock
	if tpb <= 0 {
		tpb = gpusim.ThreadsPerBlock
	}
	kernel := c.buildKernel(n, tpb, dev.Config().SharedMemPerBlock, numRows,
		occBuf, offBuf, aggVecBuf, occVecBuf, outAgg, outMax)
	if err := dev.Launch((n+tpb-1)/tpb, kernel); err != nil {
		return nil, err
	}
	if err := dev.CopyFromDevice(outAgg, res.Portfolio.Agg); err != nil {
		return nil, err
	}
	if err := dev.CopyFromDevice(outMax, res.Portfolio.OccMax); err != nil {
		return nil, err
	}
	c.LastStats = dev.Stats()
	return res, nil
}

// buildKernel returns the device kernel over bn trials: the naive global-memory form, or the chunked
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
