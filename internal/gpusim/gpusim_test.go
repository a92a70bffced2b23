package gpusim

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
)

func TestAllocAndCopyRoundTrip(t *testing.T) {
	d := NewDevice(Config{}, 1024)
	b, err := d.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 100)
	for i := range in {
		in[i] = float64(i) * 1.5
	}
	if err := d.CopyToDevice(b, in); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 100)
	if err := d.CopyFromDevice(b, out); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("element %d: %v != %v", i, out[i], in[i])
		}
	}
	if got := d.Stats().TransferFloats; got != 200 {
		t.Fatalf("TransferFloats = %d, want 200", got)
	}
}

func TestAllocExhaustion(t *testing.T) {
	d := NewDevice(Config{}, 100)
	if _, err := d.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc(60); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if _, err := d.Alloc(40); err != nil {
		t.Fatalf("the remaining 40 floats: %v", err)
	}
}

func TestCopyBoundsChecked(t *testing.T) {
	d := NewDevice(Config{}, 100)
	b, _ := d.Alloc(10)
	if err := d.CopyToDevice(b, make([]float64, 11)); err == nil {
		t.Fatal("oversized upload should error")
	}
	if err := d.CopyFromDevice(b, make([]float64, 11)); err == nil {
		t.Fatal("oversized download should error")
	}
}

func TestLaunchExecutesAllBlocks(t *testing.T) {
	d := NewDevice(Config{NumSMs: 4}, 1024)
	var count atomic.Int64
	seen := make([]atomic.Bool, 64)
	err := d.Launch(64, func(c *BlockCtx) {
		if c.GridDim != 64 {
			t.Errorf("GridDim = %d", c.GridDim)
		}
		if seen[c.BlockID].Swap(true) {
			t.Errorf("block %d ran twice", c.BlockID)
		}
		count.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 64 {
		t.Fatalf("ran %d blocks", count.Load())
	}
	if d.Stats().Blocks != 64 {
		t.Fatalf("Stats.Blocks = %d", d.Stats().Blocks)
	}
}

func TestLaunchValidation(t *testing.T) {
	d := NewDevice(Config{}, 16)
	if err := d.Launch(0, func(*BlockCtx) {}); !errors.Is(err, ErrBadLaunch) {
		t.Fatal("gridDim 0 should error")
	}
	if err := d.Launch(1, nil); !errors.Is(err, ErrBadLaunch) {
		t.Fatal("nil kernel should error")
	}
}

func TestKernelFaultRecovered(t *testing.T) {
	d := NewDevice(Config{NumSMs: 2}, 16)
	b, _ := d.Alloc(4)
	err := d.Launch(8, func(c *BlockCtx) {
		_ = c.LoadGlobal(b, 100) // out of device memory -> panic -> error
	})
	if err == nil {
		t.Fatal("kernel fault should surface as launch error")
	}
}

func TestGlobalKernelComputes(t *testing.T) {
	d := NewDevice(Config{NumSMs: 4}, 4096)
	n := 1000
	in, _ := d.Alloc(n)
	out, _ := d.Alloc(n)
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i)
	}
	if err := d.CopyToDevice(in, data); err != nil {
		t.Fatal(err)
	}
	// Grid-stride doubling kernel.
	grid := 8
	err := d.Launch(grid, func(c *BlockCtx) {
		for i := c.BlockID; i < n; i += c.GridDim {
			v := c.LoadGlobal(in, i)
			c.AddArith(1)
			c.StoreGlobal(out, i, 2*v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	res := make([]float64, n)
	if err := d.CopyFromDevice(out, res); err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i] != 2*float64(i) {
			t.Fatalf("out[%d] = %v", i, res[i])
		}
	}
	s := d.Stats()
	if s.GlobalAccesses != uint64(2*n) {
		t.Fatalf("GlobalAccesses = %d, want %d", s.GlobalAccesses, 2*n)
	}
	if s.ArithOps != uint64(n) {
		t.Fatalf("ArithOps = %d, want %d", s.ArithOps, n)
	}
}

func TestChunkedStagingCheaperThanNaive(t *testing.T) {
	// The E4 mechanism in miniature: summing a table B times (one per
	// block) via global loads vs staging it into shared memory once
	// per block. Chunked must cost dramatically fewer modeled cycles.
	const tableN = 2048
	const blocks = 32
	table := make([]float64, tableN)
	for i := range table {
		table[i] = float64(i % 17)
	}
	var want float64
	for _, v := range table {
		want += v
	}

	run := func(chunked bool) (Stats, float64) {
		d := NewDevice(Config{NumSMs: 4, SharedMemPerBlock: tableN}, tableN+blocks)
		buf, _ := d.Alloc(tableN)
		res, _ := d.Alloc(blocks)
		if err := d.CopyToDevice(buf, table); err != nil {
			t.Fatal(err)
		}
		err := d.Launch(blocks, func(c *BlockCtx) {
			var sum float64
			if chunked {
				c.StageToShared(buf, 0, tableN, 0)
				for i := 0; i < tableN; i++ {
					sum += c.LoadShared(i)
					c.AddArith(1)
				}
			} else {
				for i := 0; i < tableN; i++ {
					sum += c.LoadGlobal(buf, i)
					c.AddArith(1)
				}
			}
			c.StoreGlobal(res, c.BlockID, sum)
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, blocks)
		if err := d.CopyFromDevice(res, out); err != nil {
			t.Fatal(err)
		}
		for b, v := range out {
			if math.Abs(v-want) > 1e-9 {
				t.Fatalf("block %d sum = %v, want %v", b, v, want)
			}
		}
		return d.Stats(), d.Stats().ModeledSeconds(d.Config())
	}

	naiveStats, naiveSec := run(false)
	chunkStats, chunkSec := run(true)
	if chunkStats.BlockCycles >= naiveStats.BlockCycles {
		t.Fatalf("chunked cycles %d not below naive %d", chunkStats.BlockCycles, naiveStats.BlockCycles)
	}
	ratio := float64(naiveStats.BlockCycles) / float64(chunkStats.BlockCycles)
	if ratio < 5 {
		t.Fatalf("chunking speedup %0.1fx too small for global=400 shared=4 model", ratio)
	}
	if chunkSec <= 0 || naiveSec <= 0 {
		t.Fatal("modeled seconds should be positive")
	}
	if chunkSec >= naiveSec {
		t.Fatal("modeled time should improve with chunking")
	}
}

func TestSharedMemoryIsolationBetweenBlocks(t *testing.T) {
	// Shared memory is zeroed between blocks on the same SM.
	d := NewDevice(Config{NumSMs: 1, SharedMemPerBlock: 8}, 64)
	res, _ := d.Alloc(32)
	err := d.Launch(32, func(c *BlockCtx) {
		if v := c.LoadShared(0); v != 0 {
			c.StoreGlobal(res, c.BlockID, -1) // leak detected
			return
		}
		c.StoreShared(0, float64(c.BlockID)+1)
		c.StoreGlobal(res, c.BlockID, c.LoadShared(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 32)
	if err := d.CopyFromDevice(res, out); err != nil {
		t.Fatal(err)
	}
	for b, v := range out {
		if v == -1 {
			t.Fatalf("block %d observed stale shared memory", b)
		}
		if v != float64(b)+1 {
			t.Fatalf("block %d result %v", b, v)
		}
	}
}

func TestModeledCyclesDividesAcrossSMs(t *testing.T) {
	s := Stats{BlockCycles: 1600, TransferFloats: 10}
	cfg := Config{NumSMs: 16}
	if got := s.ModeledCycles(cfg); got != 100+80 {
		t.Fatalf("ModeledCycles = %d, want 180 (transfers at 8 cycles a float)", got)
	}
	if sec := s.ModeledSeconds(cfg); math.Abs(sec-180/1.15e9) > 1e-15 {
		t.Fatalf("ModeledSeconds = %v, want 180 cycles at 1.15 GHz", sec)
	}
	if got := s.ModeledCycles(Config{}); got != 1600+80 {
		t.Fatalf("ModeledCycles with no SM count = %d, want 1680 (one SM)", got)
	}
}
