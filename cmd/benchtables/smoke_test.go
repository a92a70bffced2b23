package main

import (
	"bytes"
	"context"
	"io"
	"testing"
)

// Every experiment that times two engines holds their answers to each
// other and fails on the first trial whose portfolio YLT differs in any
// bit: E1, E2 and E8 hold aggregate.Parallel to aggregate.Sequential,
// E1's device line and E4 the chunked device kernel to the naive one,
// E5 the scan engine to the random-access oracle aggregate.LegacyLookup,
// E6 MapReduce over spilled shards to Parallel over the resident table,
// and E7's three provisioned pipeline runs each other's catastrophe and
// enterprise tables. So the quick tables must all print, and exit 0.
func TestQuickSmoke(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(context.Background(), []string{"benchtables", "-quick"}, io.Discard, &stderr); code != 0 {
		t.Fatalf("benchtables -quick: exit %d\n%s", code, stderr.String())
	}
}
