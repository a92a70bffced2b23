package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/risk"
)

func smallStudyConfig(seed uint64) risk.Config {
	return risk.Config{
		Seed:                 seed,
		Events:               600,
		Contracts:            3,
		LocationsPerContract: 80,
		Trials:               1200,
		Rho:                  0.2,
		// Quotes single-threaded: the pool provides the parallelism.
		Workers: 1,
	}
}

// End to end over a real study: warmed server quotes must match
// quotes from a direct, identically-configured study.
func TestStudyServerEndToEnd(t *testing.T) {
	study := risk.NewStudy(smallStudyConfig(31))
	s := New(study, Config{Workers: 2, DefaultTrials: 800})
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})

	ref := risk.NewStudy(smallStudyConfig(31))
	for c := 0; c < study.NumContracts(); c++ {
		want, err := ref.PriceContract(context.Background(), c, 800)
		if err != nil {
			t.Fatal(err)
		}
		resp, out := postQuote(t, ts, fmt.Sprintf(`{"contract": %d, "trials": 800}`, c))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("contract %d: status %d (%v)", c, resp.StatusCode, out)
		}
		if got := out["aal"].(float64); got != want.AAL {
			t.Fatalf("contract %d: served AAL %v != direct %v", c, got, want.AAL)
		}
		if got := out["premium"].(float64); got != want.Premium {
			t.Fatalf("contract %d: served premium %v != direct %v", c, got, want.Premium)
		}
	}

	// The portfolio endpoint runs the full study once; a second hit
	// serves the cached report.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v1/portfolio")
		if err != nil {
			t.Fatal(err)
		}
		var port portfolioResponse
		if err := json.NewDecoder(resp.Body).Decode(&port); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("portfolio status = %d", resp.StatusCode)
		}
		if port.Catastrophe.AAL <= 0 || port.Enterprise.Trials <= 0 {
			t.Fatalf("portfolio summary = %+v", port)
		}
		if len(port.Stages) != 4 {
			t.Fatalf("portfolio stages = %d, want 4 (no duplicate lines)", len(port.Stages))
		}
	}
}

// Hammer concurrent quotes across contracts against the shared study
// while the portfolio report is computed mid-flight — the serving
// tier's whole concurrency story, pinned under -race in CI.
func TestConcurrentQuotesAcrossContracts(t *testing.T) {
	study := risk.NewStudy(smallStudyConfig(32))
	s := New(study, Config{Workers: 4, QueueDepth: 64, DefaultTrials: 500})
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})

	want := make([]float64, study.NumContracts())
	for c := range want {
		q, err := risk.NewStudy(smallStudyConfig(32)).PriceContract(context.Background(), c, 500)
		if err != nil {
			t.Fatal(err)
		}
		want[c] = q.AAL
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/v1/portfolio")
		if err != nil {
			errc <- err
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errc <- fmt.Errorf("portfolio during quote storm: %d", resp.StatusCode)
		}
	}()
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				c := (g + i) % study.NumContracts()
				body := fmt.Sprintf(`{"contract": %d, "trials": 500}`, c)
				resp, err := http.Post(ts.URL+"/v1/quote", "application/json", bytes.NewBufferString(body))
				if err != nil {
					errc <- err
					return
				}
				var out map[string]any
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					resp.Body.Close()
					errc <- err
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if got := out["aal"].(float64); got != want[c] {
						errc <- fmt.Errorf("contract %d: concurrent AAL %v != %v", c, got, want[c])
						return
					}
				case http.StatusTooManyRequests:
					// Admission control under the storm is legitimate.
				default:
					errc <- fmt.Errorf("contract %d: status %d (%v)", c, resp.StatusCode, out)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// The /v1/statz document is an interface: bench/serve.go reads rejected,
// timeouts and p50_ms out of it, dashboards the rest. A key may only
// leave, or arrive, by editing this list. cube_dims is omitted until a
// full run has materialized the cube.
func TestStatzDocumentKeys(t *testing.T) {
	want := []string{
		"bad_requests", "contracts", "cube_built", "cube_cells", "cube_dims", "cube_misses",
		"cube_queries", "cube_size_bytes", "failed", "inflight", "p50_ms", "p99_ms",
		"queue_depth", "queue_len", "quote_streamed", "quote_table_bytes", "quote_table_grows",
		"quote_table_hits", "quote_table_trials", "received", "rejected", "served", "timeouts",
		"unavailable", "uptime_ms", "workers",
	}
	cfg := smallStudyConfig(33)
	cfg.CubeDims = []string{"region"}
	_, ts := newTestServer(t, risk.NewStudy(cfg), Config{Workers: 1})
	statzKeys := func() []string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/statz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(doc))
		for k := range doc {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		return keys
	}

	cold := slices.DeleteFunc(slices.Clone(want), func(k string) bool { return k == "cube_dims" })
	if got := statzKeys(); !slices.Equal(got, cold) {
		t.Fatalf("statz keys before a run:\n got %q\nwant %q", got, cold)
	}
	if code, body := getCube(t, ts, "?region=coastal"); code != http.StatusOK {
		t.Fatalf("cube query: status %d (%s)", code, body)
	}
	if got := statzKeys(); !slices.Equal(got, want) {
		t.Fatalf("statz keys with a cube:\n got %q\nwant %q", got, want)
	}
}

// /v1/statz surfaces the study's resident quote trial table: only a
// new largest trial count grows it, a covered request is a hit.
func TestStatzSurfacesQuoteTable(t *testing.T) {
	_, ts := newTestServer(t, risk.NewStudy(smallStudyConfig(34)), Config{Workers: 1})
	for _, trials := range []int{2000, 5000, 2000} {
		if resp, out := postQuote(t, ts, fmt.Sprintf(`{"contract": 1, "trials": %d}`, trials)); resp.StatusCode != http.StatusOK {
			t.Fatalf("quote at %d trials: status %d (%v)", trials, resp.StatusCode, out)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stz statzResponse
	if err := json.NewDecoder(resp.Body).Decode(&stz); err != nil {
		t.Fatal(err)
	}
	if stz.Trials != 5000 || stz.Grows != 2 || stz.Hits != 1 || stz.Streamed != 0 || stz.Bytes < 8*5001 {
		t.Fatalf("quote table after quotes at 2k, 5k, 2k trials: %+v", stz)
	}
}

// jsonKeys lists a JSON object's keys in the order they were written.
func jsonKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object (%v): %s", err, raw)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// checkSummaryWire holds one served risk summary to its key order, and
// its return-period rows to theirs, in ascending years.
func checkSummaryWire(t *testing.T, what string, raw []byte) {
	t.Helper()
	want := []string{"name", "trials", "aal", "stddev", "var99", "tvar99", "var995", "tvar995", "return_periods"}
	if got := jsonKeys(t, raw); !slices.Equal(got, want) {
		t.Fatalf("%s keys:\n got %q\nwant %q", what, got, want)
	}
	var doc struct {
		ReturnPeriods []json.RawMessage `json:"return_periods"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.ReturnPeriods) == 0 {
		t.Fatalf("%s has no return-period rows: %s", what, raw)
	}
	prev := 0.0
	for _, row := range doc.ReturnPeriods {
		if got := jsonKeys(t, row); !slices.Equal(got, []string{"years", "oep", "aep"}) {
			t.Fatalf("%s return-period row keys: %q", what, got)
		}
		var r struct{ Years float64 }
		if err := json.Unmarshal(row, &r); err != nil {
			t.Fatal(err)
		}
		if r.Years <= prev {
			t.Fatalf("%s return periods not ascending: %s", what, raw)
		}
		prev = r.Years
	}
}

// The summary and quote answers are interfaces too: their keys, and the
// order they are written in, may only change by editing this test.
func TestServedAnswerKeys(t *testing.T) {
	cfg := smallStudyConfig(36)
	cfg.CubeDims = []string{"region"}
	_, ts := newTestServer(t, risk.NewStudy(cfg), Config{Workers: 1})

	code, cube := getCube(t, ts, "?region=coastal")
	if code != http.StatusOK {
		t.Fatalf("cube query: status %d (%s)", code, cube)
	}
	checkSummaryWire(t, "cube answer", cube)

	resp, err := http.Get(ts.URL + "/v1/portfolio")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var port map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&port); err != nil {
		t.Fatal(err)
	}
	checkSummaryWire(t, "portfolio catastrophe", port["catastrophe"])

	qresp, err := http.Post(ts.URL+"/v1/quote", "application/json", bytes.NewBufferString(`{"contract": 1, "trials": 1000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	var quote json.RawMessage
	if err := json.NewDecoder(qresp.Body).Decode(&quote); err != nil {
		t.Fatal(err)
	}
	want := []string{"contract_id", "trials", "aal", "stddev", "tvar99", "pml250", "premium", "elapsed_ms"}
	if got := jsonKeys(t, quote); !slices.Equal(got, want) {
		t.Fatalf("quote keys:\n got %q\nwant %q", got, want)
	}
}
