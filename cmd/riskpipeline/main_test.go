package main

import (
	"flag"
	"slices"
	"testing"
	"time"
)

func TestThreeDigits(t *testing.T) {
	for in, want := range map[time.Duration]string{
		0:                       "0s",
		87 * time.Nanosecond:    "87ns",
		412_345:                 "412µs",
		999_600:                 "1ms",
		9_876_543:               "9.88ms",
		412_345_678:             "412ms",
		6_012_345_678:           "6.01s",
		83*time.Second + 4e8:    "1m23.4s",
		2*time.Hour + 1234567e3: "2h0m0s",
	} {
		if got := threeDigits(in).String(); got != want {
			t.Errorf("threeDigits(%d ns) = %s, want %s", int64(in), got, want)
		}
	}
}

// The flag set as -h lists it: every flag's name, default and usage, in
// order. A flag added, dropped or reworded, or a default that moved,
// fails here.
func TestFlagSet(t *testing.T) {
	want := []struct{ name, def, usage string }{
		{"batch", "0", "streaming trial-batch size per worker (0 = engine default)"},
		{"chaos", "", "deterministic fault injection into stage 2 (mapreduce engine), e.g. rate=0.1,shard=3@2,kill=1@4,delay=2@50ms (bit-identical results)"},
		{"contracts", "16", "number of contracts"},
		{"cube-dims", "", "comma-separated `list` of warehouse cube dimensions, e.g. region,lob (empty = no cube)"},
		{"cube-query", "", "print one cube cell, as dim=value pairs joined by commas (requires -cube-dims)"},
		{"dir", "", "spill store directory (required for -mode spill/aggregate; optional shard-keeping dir for -spill)"},
		{"engine", "parallel", "stage-2 engine: mapreduce|parallel|sequential"},
		{"events", "10000", "stochastic catalogue size"},
		{"locations", "300", "locations per contract"},
		{"mode", "run", "run = fused pipeline; spill = stage 1 + shard write into -dir, no aggregation; aggregate = re-attach to -dir shards and run stages 2-3 (the shards decide the trial count)"},
		{"nodes", "0", "spill store storage-node count (0 = default)"},
		{"parts", "0", "spill shard count (0 = derived from the trial count)"},
		{"provision", "", "per-stage worker provisioning policy: static:N or elastic:N (empty = static -workers bound)"},
		{"reinstatements", "false", "write standard reinstatement terms on the book's limited layers (one reinstatement at 100%, 5% rate-on-line) and print the premium"},
		{"replicas", "0", "spill replication factor: each shard written to this many storage nodes (<=1 = none)"},
		{"rho", "0.25", "DFA copula equicorrelation"},
		{"sampling", "true", "secondary-uncertainty sampling in stage 2"},
		{"seed", "1", "master seed"},
		{"speculate", "false", "speculative re-execution of straggling map tasks (mapreduce engine)"},
		{"spill", "false", "spill the generated trial stream into diskstore shards and run stage 2 over the shards (implies -stream)"},
		{"stream", "false", "fuse stage-2 YELT generation into the engine (bounded memory, bit-identical results)"},
		{"trials", "100000", "simulated trial years"},
		{"workers", "0", "parallelism bound (0 = all cores)"},
	}
	_, fs := newFlags("riskpipeline")
	var got []struct{ name, def, usage string }
	fs.VisitAll(func(f *flag.Flag) { got = append(got, struct{ name, def, usage string }{f.Name, f.DefValue, f.Usage}) })
	if !slices.Equal(got, want) {
		t.Errorf("flags\n got %q\nwant %q", got, want)
	}
}
