// Package gpusim is a software model of the many-core accelerator the
// paper's stage-2 engine runs on ("Methods for accumulating large
// shared memory includes the use of many-core GPUs ... The management
// of large data in memory employs the notion of chunking, which is
// utilising shared and constant memory as much as possible", §II).
//
// There are no CUDA bindings in this reproduction (repro note: CPU-only
// approximation), so the device is simulated: blocks execute for real
// on a pool of goroutine "SMs" (so wall-clock speedups are genuine),
// while every memory access is charged against a cycle cost model with
// the canonical hierarchy global ≫ shared. The cost model is what lets
// the chunking ablation (experiment E4) reproduce the paper's claim
// *architecturally*: staging ELT chunks in shared memory slashes
// modeled cycles versus a naive global-memory kernel, independent of
// the host CPU the simulation happens to run on. Constant memory is
// not modelled: no kernel of this repo ever placed data there.
package gpusim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Config describes the simulated device: how many blocks run at once
// and how much shared memory each has. Its clock and its costs, in
// cycles per access, are the constants below.
type Config struct {
	NumSMs            int // parallel block executors
	SharedMemPerBlock int // floats of shared memory per block
}

// ThreadsPerBlock is the logical threads per block (the SIMT width
// model): a coalesced load moves this many consecutive floats.
const ThreadsPerBlock = 256

// The cost model of a 2012-era Fermi/Kepler-class part, the hardware
// generation of the paper's experiments: ~400-cycle global loads vs
// single-digit shared access.
const (
	globalCost   = 400  // cycles per global-memory access
	sharedCost   = 4    // cycles per shared-memory access
	arithCost    = 1    // cycles per arithmetic op
	transferCost = 8    // cycles per float moved host<->device
	clockGHz     = 1.15 // modeled clock for cycle->seconds conversion
)

// DefaultConfig models the same part: few dozen SMs, 48 KB shared
// memory per block.
func DefaultConfig() Config {
	return Config{
		NumSMs:            16,
		SharedMemPerBlock: 48 * 1024 / 8,
	}
}

// Stats aggregates the cost-model counters of a device.
type Stats struct {
	GlobalAccesses uint64
	SharedAccesses uint64
	ArithOps       uint64
	TransferFloats uint64 // floats moved host<->device, either way
	BlockCycles    uint64 // summed cycles across all blocks
	Blocks         uint64
}

// ModeledCycles is the device-time estimate: summed block cycles
// divided across SMs (ideal balance), plus transfer cycles which are
// serialized on the host link.
func (s Stats) ModeledCycles(cfg Config) uint64 {
	sms := uint64(cfg.NumSMs)
	if sms == 0 {
		sms = 1
	}
	return s.BlockCycles/sms + s.TransferFloats*transferCost
}

// ModeledSeconds converts modeled cycles to seconds at the modeled
// clock.
func (s Stats) ModeledSeconds(cfg Config) float64 {
	return float64(s.ModeledCycles(cfg)) / (clockGHz * 1e9)
}

// Buffer is a handle to a region of device global memory.
type Buffer struct {
	off, n int
}

// Errors returned by device operations.
var (
	ErrOutOfMemory = errors.New("gpusim: device out of memory")
	ErrBadLaunch   = errors.New("gpusim: bad launch configuration")
)

// Device is a simulated accelerator. Allocation and launches are
// serialized by the caller as on a single CUDA stream; kernels run
// blocks concurrently internally.
type Device struct {
	cfg       Config
	global    []float64
	globalTop int

	stats struct {
		global, shared, arith, transfer, blockCycles, blocks atomic.Uint64
	}
}

// NewDevice returns a device with cfg (zero fields replaced by
// defaults) and the given global memory capacity in floats.
func NewDevice(cfg Config, globalFloats int) *Device {
	def := DefaultConfig()
	if cfg.NumSMs <= 0 {
		cfg.NumSMs = def.NumSMs
	}
	if cfg.SharedMemPerBlock <= 0 {
		cfg.SharedMemPerBlock = def.SharedMemPerBlock
	}
	if globalFloats <= 0 {
		globalFloats = 1 << 20
	}
	return &Device{
		cfg:    cfg,
		global: make([]float64, globalFloats),
	}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns a snapshot of the cost-model counters.
func (d *Device) Stats() Stats {
	return Stats{
		GlobalAccesses: d.stats.global.Load(),
		SharedAccesses: d.stats.shared.Load(),
		ArithOps:       d.stats.arith.Load(),
		TransferFloats: d.stats.transfer.Load(),
		BlockCycles:    d.stats.blockCycles.Load(),
		Blocks:         d.stats.blocks.Load(),
	}
}

// Alloc reserves n floats of global memory for the device's lifetime
// (a bump allocator: nothing is freed).
func (d *Device) Alloc(n int) (Buffer, error) {
	if n < 0 || d.globalTop+n > len(d.global) {
		return Buffer{}, fmt.Errorf("%w: want %d floats, %d free", ErrOutOfMemory, n, len(d.global)-d.globalTop)
	}
	b := Buffer{off: d.globalTop, n: n}
	d.globalTop += n
	return b, nil
}

// CopyToDevice uploads data into b, charging transfer cycles.
func (d *Device) CopyToDevice(b Buffer, data []float64) error {
	if len(data) > b.n {
		return fmt.Errorf("gpusim: copy of %d floats into buffer of %d", len(data), b.n)
	}
	copy(d.global[b.off:b.off+len(data)], data)
	d.stats.transfer.Add(uint64(len(data)))
	return nil
}

// CopyFromDevice downloads b into out, charging transfer cycles.
func (d *Device) CopyFromDevice(b Buffer, out []float64) error {
	if len(out) > b.n {
		return fmt.Errorf("gpusim: copy of %d floats from buffer of %d", len(out), b.n)
	}
	copy(out, d.global[b.off:b.off+len(out)])
	d.stats.transfer.Add(uint64(len(out)))
	return nil
}

// BlockCtx is the execution context a kernel receives per block.
// Accessor methods charge the cost model; the shared array is the
// block's scratchpad. A BlockCtx must not escape the kernel call.
type BlockCtx struct {
	BlockID   int
	GridDim   int
	dev       *Device
	shared    []float64
	cycles    uint64
	global    uint64
	sharedCnt uint64
	arith     uint64
}

// LoadGlobal reads one float from global memory.
func (c *BlockCtx) LoadGlobal(b Buffer, i int) float64 {
	c.global++
	c.cycles += globalCost
	return c.dev.global[b.off+i]
}

// StoreGlobal writes one float to global memory.
func (c *BlockCtx) StoreGlobal(b Buffer, i int, v float64) {
	c.global++
	c.cycles += globalCost
	c.dev.global[b.off+i] = v
}

// StageToShared copies src[lo:hi) from global memory into shared
// memory starting at dst. It models a coalesced cooperative load: the
// global cost is charged once per cache line of ThreadsPerBlock
// consecutive floats rather than per element — the whole point of
// chunked staging.
func (c *BlockCtx) StageToShared(b Buffer, lo, hi, dst int) {
	n := hi - lo
	if n <= 0 {
		return
	}
	copy(c.shared[dst:dst+n], c.dev.global[b.off+lo:b.off+hi])
	lines := uint64((n + ThreadsPerBlock - 1) / ThreadsPerBlock)
	c.global += lines
	c.cycles += lines * globalCost
	c.sharedCnt += uint64(n)
	c.cycles += uint64(n) * sharedCost
}

// LoadShared reads shared memory slot i.
func (c *BlockCtx) LoadShared(i int) float64 {
	c.sharedCnt++
	c.cycles += sharedCost
	return c.shared[i]
}

// StoreShared writes shared memory slot i.
func (c *BlockCtx) StoreShared(i int, v float64) {
	c.sharedCnt++
	c.cycles += sharedCost
	c.shared[i] = v
}

// AddArith charges n arithmetic operations.
func (c *BlockCtx) AddArith(n uint64) {
	c.arith += n
	c.cycles += n * arithCost
}

// Launch executes gridDim blocks of kernel on the device's SM pool.
// Blocks run concurrently (up to NumSMs at a time); a panic inside a
// kernel (e.g. out-of-bounds access) is recovered and returned as an
// error, as a CUDA launch failure would be.
func (d *Device) Launch(gridDim int, kernel func(*BlockCtx)) error {
	if gridDim <= 0 {
		return fmt.Errorf("%w: gridDim %d", ErrBadLaunch, gridDim)
	}
	if kernel == nil {
		return fmt.Errorf("%w: nil kernel", ErrBadLaunch)
	}
	var next atomic.Int64
	next.Store(-1)
	var panicked atomic.Value
	var wg sync.WaitGroup
	sms := d.cfg.NumSMs
	if sms > gridDim {
		sms = gridDim
	}
	wg.Add(sms)
	for sm := 0; sm < sms; sm++ {
		go func() {
			defer wg.Done()
			shared := make([]float64, d.cfg.SharedMemPerBlock)
			for {
				blk := int(next.Add(1))
				if blk >= gridDim || panicked.Load() != nil {
					return
				}
				ctx := &BlockCtx{BlockID: blk, GridDim: gridDim, dev: d, shared: shared}
				if err := d.runBlock(ctx, kernel); err != nil {
					panicked.CompareAndSwap(nil, err)
					return
				}
				d.stats.global.Add(ctx.global)
				d.stats.shared.Add(ctx.sharedCnt)
				d.stats.arith.Add(ctx.arith)
				d.stats.blockCycles.Add(ctx.cycles)
				d.stats.blocks.Add(1)
				for i := range shared {
					shared[i] = 0
				}
			}
		}()
	}
	wg.Wait()
	if e := panicked.Load(); e != nil {
		return e.(error)
	}
	return nil
}

func (d *Device) runBlock(ctx *BlockCtx, kernel func(*BlockCtx)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("gpusim: kernel fault in block %d: %v", ctx.BlockID, r)
		}
	}()
	kernel(ctx)
	return nil
}
