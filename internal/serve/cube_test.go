package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/risk"
)

func getCube(t *testing.T, ts *httptest.Server, query string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/cube" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestCubeEndpoint is the serving-tier acceptance gate over HTTP: the
// pre-computed cell answer must match the check=direct registry
// recomputation byte-for-byte, misses answer 404, malformed filters
// 400, and /v1/statz carries the cube state and counters.
func TestCubeEndpoint(t *testing.T) {
	cfg := smallStudyConfig(34)
	cfg.Sampling = true
	cfg.CubeDims = []string{"region", "lob"}
	s, ts := newTestServer(t, risk.NewStudy(cfg), Config{Workers: 1})

	code, served := getCube(t, ts, "?region=coastal")
	if code != http.StatusOK {
		t.Fatalf("served cell: status %d (%s)", code, served)
	}
	code, direct := getCube(t, ts, "?region=coastal&check=direct")
	if code != http.StatusOK {
		t.Fatalf("direct cell: status %d (%s)", code, direct)
	}
	if !bytes.Equal(served, direct) {
		t.Fatalf("served response differs from check=direct:\n%s\n%s", served, direct)
	}

	if code, body := getCube(t, ts, "?region=atlantis"); code != http.StatusNotFound {
		t.Fatalf("missing cell: status %d (%s)", code, body)
	}
	if code, body := getCube(t, ts, ""); code != http.StatusBadRequest {
		t.Fatalf("empty filter: status %d (%s)", code, body)
	}
	if code, body := getCube(t, ts, "?region=coastal&region=interior"); code != http.StatusBadRequest {
		t.Fatalf("repeated dimension: status %d (%s)", code, body)
	}
	if code, body := getCube(t, ts, "?region=coastal&check=rebuild"); code != http.StatusBadRequest {
		t.Fatalf("unknown check mode: status %d (%s)", code, body)
	}

	snap := s.stats.snapshot(s)
	if !snap.Built || snap.Cells <= 0 || snap.SizeBytes <= 0 {
		t.Fatalf("statz cube state: %+v", snap)
	}
	if snap.CubeQueries != 2 || snap.CubeMisses != 1 {
		t.Fatalf("cube counters: queries %d misses %d", snap.CubeQueries, snap.CubeMisses)
	}
}

func TestCubeRequiresStudy(t *testing.T) {
	_, ts := newTestServer(t, &fakeQuoter{contracts: 1}, Config{Workers: 1})
	if code, body := getCube(t, ts, "?region=coastal"); code != http.StatusNotImplemented {
		t.Fatalf("fake quoter: status %d (%s)", code, body)
	}
}

// A study configured without CubeDims runs fine but has no cube; the
// endpoint answers 404 and counts a miss.
func TestCubeNotBuilt(t *testing.T) {
	s, ts := newTestServer(t, risk.NewStudy(smallStudyConfig(35)), Config{Workers: 1})
	if code, body := getCube(t, ts, "?region=coastal"); code != http.StatusNotFound {
		t.Fatalf("cube-less study: status %d (%s)", code, body)
	}
	if got := s.stats.cubeMisses.Load(); got != 1 {
		t.Fatalf("cubeMisses = %d", got)
	}
}
