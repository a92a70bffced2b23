package risk

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/ylt"
)

// TestCubeQueryMatchesDirectSummarize is the serving-tier acceptance
// gate at the API layer: a pre-computed cube summary must match
// metrics.Summarize over the directly-combined member YLTs exactly,
// and CubeQueryDirect must agree with CubeQuery.
func TestCubeQueryMatchesDirectSummarize(t *testing.T) {
	cfg := smallConfig(3)
	cfg.Contracts = 6
	cfg.Sampling = true
	cfg.CubeDims = []string{"region", "lob"}
	study := NewStudy(cfg)

	if _, err := study.CubeQuery(map[string]string{"region": "coastal"}); !errors.Is(err, ErrCubeNotBuilt) {
		t.Fatalf("pre-run query: err = %v", err)
	}

	if _, err := study.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	filter := map[string]string{"region": "coastal"}
	served, err := study.CubeQuery(filter)
	if err != nil {
		t.Fatal(err)
	}

	// Direct computation from the stage-2 per-contract tables: the
	// default synthetic attrs cycle regions with period 4, so coastal
	// holds contracts 0 and 4 of the 6-contract book.
	pc := study.p.AggResult.PerContract
	combined, err := ylt.Combine("region=coastal", pc[0], pc[4])
	if err != nil {
		t.Fatal(err)
	}
	direct, err := metrics.Summarize(combined)
	if err != nil {
		t.Fatal(err)
	}
	if want := *direct; !reflect.DeepEqual(served, want) {
		t.Fatalf("served summary differs from direct Summarize:\nserved %+v\ndirect %+v", served, want)
	}

	fromRegistry, err := study.CubeQueryDirect(filter)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(served, fromRegistry) {
		t.Fatalf("CubeQueryDirect differs from CubeQuery:\n%+v\n%+v", served, fromRegistry)
	}
	// An answer is the caller's: writing to it leaves the shared cell.
	served.ReturnRows[0].AEP = -1
	if again, err := study.CubeQuery(filter); err != nil || !reflect.DeepEqual(again, fromRegistry) {
		t.Fatalf("a caller's write reached the cube cell: %+v (%v)", again, err)
	}

	if _, err := study.CubeQuery(map[string]string{"region": "atlantis"}); !errors.Is(err, ErrNoCubeCell) {
		t.Fatalf("missing cell: err = %v", err)
	}
	if _, err := study.CubeQueryDirect(map[string]string{"zone": "x"}); !errors.Is(err, ErrNoCubeCell) {
		t.Fatalf("non-cube dimension: err = %v", err)
	}

	info := study.CubeInfo()
	if !info.Built || info.Cells <= 0 || info.SizeBytes <= 0 {
		t.Fatalf("CubeInfo = %+v", info)
	}
	if !reflect.DeepEqual(info.Dims, []string{"region", "lob"}) {
		t.Fatalf("CubeInfo.Dims = %v", info.Dims)
	}

	// A cube-less study reports an unbuilt cube.
	plain := NewStudy(smallConfig(3))
	if info := plain.CubeInfo(); info.Built {
		t.Fatal("unbuilt study reports a cube")
	}
}
