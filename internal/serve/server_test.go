package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/risk"
)

// fakeQuoter pins the admission/timeout/drain state machines without
// real simulations. A nil gate answers instantly; otherwise each call
// blocks until the gate is fed (or its ctx expires, like a real
// simulation observing cancellation at a batch boundary).
type fakeQuoter struct {
	contracts int
	gate      chan struct{}
	started   chan struct{} // fed when a worker picks the job up
	err       error
	// holdGate ignores ctx while gated — the worker stays pinned until
	// the gate is fed or closed, letting tests sequence deterministically.
	holdGate bool
	// panicOnce, when set, makes the first call panic and clears itself.
	panicOnce atomic.Bool
}

func (f *fakeQuoter) NumContracts() int { return f.contracts }

func (f *fakeQuoter) PriceContract(ctx context.Context, contract, trials int) (*risk.Quote, error) {
	if f.started != nil {
		f.started <- struct{}{}
	}
	if f.gate != nil {
		if f.holdGate {
			<-f.gate
		} else {
			select {
			case <-f.gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	if f.panicOnce.CompareAndSwap(true, false) {
		panic("fakeQuoter: first call panics")
	}
	if f.err != nil {
		return nil, f.err
	}
	return &risk.Quote{
		ContractID: uint32(contract + 1), Trials: trials,
		AAL: 1000, StdDev: 200, TVaR99: 5000, PML250: 4000,
		Premium: 1070, Elapsed: time.Millisecond,
	}, nil
}

func postQuote(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/quote", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func newTestServer(t *testing.T, q Quoter, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(q, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

func TestQuoteSuccess(t *testing.T) {
	_, ts := newTestServer(t, &fakeQuoter{contracts: 4}, Config{Workers: 2})
	resp, out := postQuote(t, ts, `{"contract": 2, "trials": 5000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v", resp.StatusCode, out)
	}
	if out["contract_id"].(float64) != 3 {
		t.Fatalf("contract_id = %v", out["contract_id"])
	}
	if out["trials"].(float64) != 5000 {
		t.Fatalf("trials = %v", out["trials"])
	}
	if out["premium"].(float64) != 1070 {
		t.Fatalf("premium = %v", out["premium"])
	}
}

func TestQuoteDefaultTrials(t *testing.T) {
	_, ts := newTestServer(t, &fakeQuoter{contracts: 1}, Config{Workers: 1, DefaultTrials: 7777})
	resp, out := postQuote(t, ts, `{"contract": 0}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out["trials"].(float64) != 7777 {
		t.Fatalf("default trials = %v, want 7777", out["trials"])
	}
}

func TestQuoteBadRequests(t *testing.T) {
	s, ts := newTestServer(t, &fakeQuoter{contracts: 3}, Config{Workers: 1, MaxTrials: 10_000})
	cases := []string{
		`{"contract": 99}`,                  // unknown contract
		`{"contract": -1}`,                  // negative contract
		`{"contract": 0, "trials": 999999}`, // over the cap
		`not json`,                          // malformed body
	}
	for _, body := range cases {
		resp, out := postQuote(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status = %d, want 400 (%v)", body, resp.StatusCode, out)
		}
	}
	if got := s.stats.badRequests.Load(); got != int64(len(cases)) {
		t.Fatalf("bad_requests = %d, want %d", got, len(cases))
	}
	if s.stats.served.Load() != 0 {
		t.Fatal("bad requests must not reach a worker")
	}
}

func TestQuoteQueueFullFast429(t *testing.T) {
	fq := &fakeQuoter{contracts: 1, gate: make(chan struct{}), started: make(chan struct{}, 8)}
	s, ts := newTestServer(t, fq, Config{Workers: 1, QueueDepth: 1})

	// First request occupies the single worker...
	type result struct {
		code int
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, _ := postQuote(t, ts, `{"contract": 0, "trials": 1}`)
			results <- result{resp.StatusCode}
		}()
		if i == 0 {
			<-fq.started // ...and is simulating before the second is sent
		} else {
			// The second parks in the queue; poll until it occupies the slot.
			deadline := time.Now().Add(2 * time.Second)
			for len(s.jobs) == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if len(s.jobs) == 0 {
				t.Fatal("second request never queued")
			}
		}
	}

	// Worker busy + queue full: the next request must be rejected
	// immediately, not parked.
	start := time.Now()
	resp, _ := postQuote(t, ts, `{"contract": 0, "trials": 1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity status = %d, want 429", resp.StatusCode)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("429 took %v; rejection must be immediate", d)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 should carry Retry-After")
	}

	// Release both held quotes; they must complete normally.
	fq.gate <- struct{}{}
	fq.gate <- struct{}{}
	for i := 0; i < 2; i++ {
		if r := <-results; r.code != http.StatusOK {
			t.Fatalf("held quote finished with %d", r.code)
		}
	}
	if got := s.stats.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

func TestQuoteTimeout503(t *testing.T) {
	fq := &fakeQuoter{contracts: 1, gate: make(chan struct{})}
	s, ts := newTestServer(t, fq, Config{Workers: 1, Timeout: 30 * time.Millisecond})
	defer close(fq.gate)
	resp, _ := postQuote(t, ts, `{"contract": 0, "trials": 1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out status = %d, want 503", resp.StatusCode)
	}
	if got := s.stats.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
}

// A request whose budget expires while still queued must answer 503
// and must NOT be simulated when the worker eventually dequeues it.
func TestQueuedTimeoutNotSimulated(t *testing.T) {
	fq := &fakeQuoter{contracts: 1, gate: make(chan struct{}), started: make(chan struct{}, 8), holdGate: true}
	s, ts := newTestServer(t, fq, Config{Workers: 1, QueueDepth: 1, Timeout: 50 * time.Millisecond})

	first := make(chan int, 1)
	go func() {
		resp, _ := postQuote(t, ts, `{"contract": 0, "trials": 1}`)
		first <- resp.StatusCode
	}()
	<-fq.started

	// Second request queues behind the held worker and times out there.
	resp, _ := postQuote(t, ts, `{"contract": 0, "trials": 1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued-timeout status = %d, want 503", resp.StatusCode)
	}

	// The first request's handler also answers 503 when its own budget
	// expires, even though its simulation is still occupying the worker.
	if code := <-first; code != http.StatusServiceUnavailable {
		t.Fatalf("first quote status = %d, want 503", code)
	}

	// Both handlers have given up — the queued job's ctx is certainly
	// expired. Release the worker: it must drain the dead job without
	// simulating it.
	close(fq.gate)
	deadline := time.Now().Add(2 * time.Second)
	for len(s.jobs) > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(s.jobs) != 0 {
		t.Fatal("queued job never drained")
	}
	select {
	case <-fq.started:
		t.Fatal("expired queued job was simulated anyway")
	default:
	}
}

func TestQuoteEngineError500(t *testing.T) {
	fq := &fakeQuoter{contracts: 1, err: errors.New("boom")}
	s, ts := newTestServer(t, fq, Config{Workers: 1})
	resp, out := postQuote(t, ts, `{"contract": 0, "trials": 1}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (%v)", resp.StatusCode, out)
	}
	if s.stats.failed.Load() != 1 {
		t.Fatal("failed counter not incremented")
	}
}

// A panic inside the quoter is one failed quote, not the end of the
// process: that request answers 500, the pool's only worker serves the
// next one, inflight returns to zero, and Drain (in the cleanup) still
// finds the worker alive to retire.
func TestQuotePanic500WorkerSurvives(t *testing.T) {
	fq := &fakeQuoter{contracts: 1}
	fq.panicOnce.Store(true)
	s, ts := newTestServer(t, fq, Config{Workers: 1})
	resp, out := postQuote(t, ts, `{"contract": 0, "trials": 1}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking quote: status = %d, want 500 (%v)", resp.StatusCode, out)
	}
	resp, out = postQuote(t, ts, `{"contract": 0, "trials": 1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quote after the panic: status = %d, want 200 (%v)", resp.StatusCode, out)
	}
	if f, sv, in := s.stats.failed.Load(), s.stats.served.Load(), s.stats.inflight.Load(); f != 1 || sv != 1 || in != 0 {
		t.Fatalf("failed=%d served=%d inflight=%d, want 1, 1, 0", f, sv, in)
	}
}

func TestShutdownDrainsInflightQuotes(t *testing.T) {
	fq := &fakeQuoter{contracts: 1, gate: make(chan struct{}), started: make(chan struct{}, 1)}
	s, ts := newTestServer(t, fq, Config{Workers: 1})

	inflight := make(chan int, 1)
	go func() {
		resp, _ := postQuote(t, ts, `{"contract": 0, "trials": 1}`)
		inflight <- resp.StatusCode
	}()
	<-fq.started

	// Draining: new quotes are refused, healthz flips, the in-flight
	// quote is NOT cancelled.
	s.BeginDrain()
	resp, _ := postQuote(t, ts, `{"contract": 0, "trials": 1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quote during drain = %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", hresp.StatusCode)
	}

	// Release the held quote: it must complete with 200 — draining
	// finishes in-flight work rather than dropping it.
	fq.gate <- struct{}{}
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight quote during drain finished with %d, want 200", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after release: %v", err)
	}
}

func TestHealthzAndStatz(t *testing.T) {
	s, ts := newTestServer(t, &fakeQuoter{contracts: 2}, Config{Workers: 2, QueueDepth: 4})
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" || health["warm"] != true {
		t.Fatalf("healthz = %v", health)
	}

	for i := 0; i < 5; i++ {
		if resp, _ := postQuote(t, ts, fmt.Sprintf(`{"contract": %d, "trials": 10}`, i%2)); resp.StatusCode != 200 {
			t.Fatalf("quote %d failed", i)
		}
	}
	resp, err = http.Get(ts.URL + "/v1/statz")
	if err != nil {
		t.Fatal(err)
	}
	var stz statzResponse
	if err := json.NewDecoder(resp.Body).Decode(&stz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stz.Served != 5 || stz.Received != 5 {
		t.Fatalf("statz counters = %+v", stz)
	}
	if stz.Contracts != 2 || stz.Workers != 2 || stz.QueueDepth != 4 {
		t.Fatalf("statz config echo = %+v", stz)
	}
	if stz.P50MS <= 0 || stz.P99MS < stz.P50MS {
		t.Fatalf("statz latency quantiles = p50 %v p99 %v", stz.P50MS, stz.P99MS)
	}
}

func TestPortfolioRequiresStudy(t *testing.T) {
	_, ts := newTestServer(t, &fakeQuoter{contracts: 1}, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/portfolio")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("portfolio without study = %d, want 501", resp.StatusCode)
	}
}

func TestReservoirQuantiles(t *testing.T) {
	r := newReservoir(8)
	if quantile(r.sorted(), 0.5) != 0 {
		t.Fatal("empty reservoir should answer 0")
	}
	for i := 100; i >= 1; i-- { // ring keeps the last 8, newest smallest: 8..1ms
		r.observe(time.Duration(i) * time.Millisecond)
	}
	// One snapshot answers every quantile, and sorting it leaves the
	// ring itself in arrival order.
	win := r.sorted()
	if q := quantile(win, 0); q != 1*time.Millisecond {
		t.Fatalf("min = %v", q)
	}
	if q := quantile(win, 1); q != 8*time.Millisecond {
		t.Fatalf("max = %v", q)
	}
	if q := quantile(win, 0.5); q != 4*time.Millisecond {
		t.Fatalf("p50 = %v, want the lower middle of 1..8ms", q)
	}
	r.observe(9 * time.Millisecond) // overwrites the oldest, 8ms
	if win = r.sorted(); len(win) != 8 || win[0] != 1*time.Millisecond || win[6] != 7*time.Millisecond || win[7] != 9*time.Millisecond {
		t.Fatalf("window after one more observation = %v", win)
	}
}
