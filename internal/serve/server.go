// Package serve is the real-time quote serving tier over risk.Study —
// the paper's flagship stage-2 use case ("a 1 million trial aggregate
// simulation on a typical contract only takes 25 seconds and can
// therefore support real-time pricing", §II) turned into an HTTP/JSON
// service.
//
// The server owns a bounded worker pool with admission control: quote
// requests queue up to Config.QueueDepth and are rejected immediately
// with 429 beyond that, and every request carries a deadline covering
// both queue wait and simulation, answering 503 when it expires. Under
// overload the tier therefore degrades by shedding load at constant
// latency instead of collapsing into unbounded queueing — that is what
// makes "millions of users" honest rather than aspirational.
//
// Endpoints:
//
//	POST /v1/quote     {"contract": N, "trials": T} → quote JSON
//	GET  /v1/portfolio full-study portfolio report (computed once)
//	GET  /v1/cube      pre-computed warehouse cell (?region=...&lob=...)
//	GET  /v1/healthz   liveness + warm/draining state
//	GET  /v1/statz     counters, queue state, latency quantiles, cube and quote-table stats
//
// /v1/cube serves dashboard-scale read traffic from the warehouse
// cube materialized during the study run (risk.Config.CubeDims): the
// query parameters form the dimension filter and the answer is the
// cell's pre-computed summary — a dictionary lookup, no simulation.
// Appending check=direct re-derives the summary from the cube's
// per-contract registry instead, which must match the pre-computed
// answer byte-for-byte (the CI smoke step diffs the two).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/risk"
)

// Quoter is the slice of risk.Study the quote path needs. risk.Study
// satisfies it; tests substitute gated fakes to pin the admission and
// drain state machines deterministically.
type Quoter interface {
	PriceContract(ctx context.Context, contract, trials int) (*risk.Quote, error)
	NumContracts() int
}

// Config sizes the serving tier. Zero fields take defaults.
type Config struct {
	// Workers bounds the quote worker pool; <= 0 means GOMAXPROCS.
	// Quote simulations should be configured single-threaded
	// (risk.Config.Workers = 1) when served from a pool: parallelism
	// across requests, not within one, is what sustains QPS.
	Workers int
	// QueueDepth bounds the admission queue. A quote arriving with the
	// queue full answers 429 immediately; <= 0 means 2×Workers.
	QueueDepth int
	// Timeout is the per-request budget covering queue wait plus
	// simulation; an expired request answers 503. <= 0 means 30s.
	Timeout time.Duration
	// DefaultTrials is used when a request omits the trial count;
	// <= 0 means 100_000.
	DefaultTrials int
	// MaxTrials caps the requested trial count so one request cannot
	// occupy a worker unboundedly; <= 0 means 2_000_000.
	MaxTrials int
}

type job struct {
	ctx      context.Context
	contract int
	trials   int
	done     chan jobResult // buffered(1): the worker never blocks on it
}

type jobResult struct {
	quote *risk.Quote
	err   error
}

// Server is the quote service. Create with New (which starts the
// worker pool), expose Handler over HTTP, and retire with Drain.
type Server struct {
	cfg   Config
	q     Quoter
	study *risk.Study // non-nil when q is a *risk.Study; backs /v1/portfolio

	mux  *http.ServeMux
	jobs chan *job

	// admitMu makes enqueue-vs-close safe: admissions hold it shared,
	// Drain closes the queue under the exclusive half after flipping
	// draining, so no admission can send on a closed channel.
	admitMu  sync.RWMutex
	draining atomic.Bool
	warm     atomic.Bool

	workerWG  sync.WaitGroup
	closeOnce sync.Once
	start     time.Time
	stats     stats

	portMu  sync.Mutex
	portRep *risk.Report
}

// New returns a Server for q with its worker pool already running.
// Call Drain to retire it.
func New(q Quoter, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.DefaultTrials <= 0 {
		cfg.DefaultTrials = 100_000
	}
	if cfg.MaxTrials <= 0 {
		cfg.MaxTrials = 2_000_000
	}
	s := &Server{
		cfg:   cfg,
		q:     q,
		jobs:  make(chan *job, cfg.QueueDepth),
		start: time.Now(),
	}
	if st, ok := q.(*risk.Study); ok {
		s.study = st
	}
	s.stats.lat = newReservoir(4096)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/quote", s.handleQuote)
	s.mux.HandleFunc("GET /v1/portfolio", s.handlePortfolio)
	s.mux.HandleFunc("GET /v1/cube", s.handleCube)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/statz", s.handleStatz)
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the HTTP handler serving the /v1 endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Warm pre-runs stage 1 and builds every per-contract quote layout so
// first quotes pay no lazy-initialization cost, then flips the
// /v1/healthz warm flag. Non-Study quoters warm trivially.
func (s *Server) Warm(ctx context.Context) error {
	if s.study != nil {
		if err := s.study.WarmQuotes(ctx); err != nil {
			return err
		}
	}
	s.warm.Store(true)
	return nil
}

// BeginDrain stops admitting new quotes (they answer 503, and healthz
// reports draining so load balancers stop routing) while queued and
// in-flight quotes run to completion.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain begins draining if BeginDrain has not already, waits for every
// queued and in-flight quote to finish, and stops the worker pool. The
// HTTP layer should be shut down first (http.Server.Shutdown waits for
// active handlers, each of which holds its job to completion); Drain
// then retires the idle pool. It returns ctx.Err if ctx expires before
// the pool drains.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	s.closeOnce.Do(func() {
		// Exclusive admitMu: no admission is mid-send, and none will
		// start now that draining is set.
		s.admitMu.Lock()
		close(s.jobs)
		s.admitMu.Unlock()
	})
	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

var (
	errDraining  = errors.New("server draining")
	errQueueFull = errors.New("quote queue full")
)

// admit enqueues j or reports why it cannot, without ever blocking:
// admission control is the whole point of the bounded queue.
func (s *Server) admit(j *job) error {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		return errDraining
	}
	select {
	case s.jobs <- j:
		return nil
	default:
		return errQueueFull
	}
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.jobs {
		if err := j.ctx.Err(); err != nil {
			// The handler already gave up on this job (its budget
			// expired while queued); don't burn a simulation on it.
			j.done <- jobResult{err: err}
			continue
		}
		j.done <- s.price(j)
	}
}

// price simulates one job. A panic in the quoter unwinds a pool
// goroutine, not an http.Server handler goroutine, so nothing above
// would recover it and one bad quote would take the process down: it
// becomes the job's error instead (the handler answers 500 and counts
// it as failed) and the worker goes on to the next job.
func (s *Server) price(j *job) (res jobResult) {
	s.stats.inflight.Add(1)
	defer func() {
		s.stats.inflight.Add(-1)
		if p := recover(); p != nil {
			log.Printf("serve: panic pricing contract %d: %v\n%s", j.contract, p, debug.Stack())
			res = jobResult{err: fmt.Errorf("quote panicked: %v", p)}
		}
	}()
	q, err := s.q.PriceContract(j.ctx, j.contract, j.trials)
	return jobResult{quote: q, err: err}
}

type quoteRequest struct {
	Contract int `json:"contract"`
	Trials   int `json:"trials"`
}

type quoteResponse struct {
	*risk.Quote
	// ElapsedMS is the simulation wall time; the latency the client
	// observed additionally includes queue wait.
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Server) handleQuote(w http.ResponseWriter, r *http.Request) {
	s.stats.received.Add(1)
	if s.draining.Load() {
		s.stats.unavailable.Add(1)
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	var req quoteRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		s.stats.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "bad quote request: "+err.Error())
		return
	}
	// Mirror the study's fail-fast validation at the edge: an invalid
	// request must never consume a queue slot or a worker.
	if n := s.q.NumContracts(); req.Contract < 0 || req.Contract >= n {
		s.stats.badRequests.Add(1)
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown contract %d (book holds %d)", req.Contract, n))
		return
	}
	trials := req.Trials
	if trials <= 0 {
		trials = s.cfg.DefaultTrials
	}
	if trials > s.cfg.MaxTrials {
		s.stats.badRequests.Add(1)
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("trials %d exceeds cap %d", trials, s.cfg.MaxTrials))
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	j := &job{ctx: ctx, contract: req.Contract, trials: trials, done: make(chan jobResult, 1)}
	start := time.Now() // latency includes queue wait — that is what the client feels
	if err := s.admit(j); err != nil {
		if err == errDraining {
			s.stats.unavailable.Add(1)
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		s.stats.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	select {
	case res := <-j.done:
		if res.err != nil {
			if errors.Is(res.err, context.DeadlineExceeded) || errors.Is(res.err, context.Canceled) {
				s.stats.timeouts.Add(1)
				httpError(w, http.StatusServiceUnavailable, "quote timed out")
				return
			}
			s.stats.failed.Add(1)
			httpError(w, http.StatusInternalServerError, res.err.Error())
			return
		}
		s.stats.served.Add(1)
		s.stats.lat.observe(time.Since(start))
		writeJSON(w, http.StatusOK, quoteResponse{
			Quote:     res.quote,
			ElapsedMS: float64(res.quote.Elapsed) / float64(time.Millisecond),
		})
	case <-ctx.Done():
		// Budget exhausted while queued or mid-simulation; the worker
		// observes the same ctx and abandons the job.
		s.stats.timeouts.Add(1)
		httpError(w, http.StatusServiceUnavailable, "quote timed out")
	}
}

type portfolioResponse struct {
	Catastrophe *risk.Summary `json:"catastrophe"`
	Enterprise  *risk.Summary `json:"enterprise"`
	Stages      []stageLine   `json:"stages"`
}

type stageLine struct {
	Name        string  `json:"name"`
	DurationMS  float64 `json:"duration_ms"`
	OutputBytes int64   `json:"output_bytes"`
}

// ensureReport runs the full study once, on first demand; quotes
// continue concurrently — after warm-up the idempotent Run only
// touches stage-2/3 state the quote path never reads. Both the
// portfolio and cube endpoints gate on it.
func (s *Server) ensureReport(ctx context.Context) (*risk.Report, error) {
	s.portMu.Lock()
	defer s.portMu.Unlock()
	if s.portRep == nil {
		rep, err := s.study.Run(ctx)
		if err != nil {
			return nil, err
		}
		s.portRep = rep
	}
	return s.portRep, nil
}

func (s *Server) handlePortfolio(w http.ResponseWriter, r *http.Request) {
	if s.study == nil {
		httpError(w, http.StatusNotImplemented, "portfolio endpoint requires a risk.Study-backed server")
		return
	}
	rep, err := s.ensureReport(r.Context())
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	out := portfolioResponse{Catastrophe: rep.Catastrophe, Enterprise: rep.Enterprise}
	for _, st := range rep.Stages {
		out.Stages = append(out.Stages, stageLine{
			Name:        st.Name,
			DurationMS:  float64(st.Duration) / float64(time.Millisecond),
			OutputBytes: st.OutputBytes,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCube serves a pre-computed warehouse cell. The URL query
// parameters are the dimension filter; the reserved check=direct
// parameter re-derives the summary from the cube's registry instead
// of reading the pre-computed cell (for self-checks and CI diffs).
func (s *Server) handleCube(w http.ResponseWriter, r *http.Request) {
	if s.study == nil {
		httpError(w, http.StatusNotImplemented, "cube endpoint requires a risk.Study-backed server")
		return
	}
	direct := false
	filter := map[string]string{}
	for k, vs := range r.URL.Query() {
		if k == "check" {
			switch {
			case len(vs) == 1 && vs[0] == "direct":
				direct = true
			default:
				httpError(w, http.StatusBadRequest, "unknown check mode (want check=direct)")
				return
			}
			continue
		}
		if len(vs) != 1 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("dimension %q repeated", k))
			return
		}
		filter[k] = vs[0]
	}
	if len(filter) == 0 {
		httpError(w, http.StatusBadRequest, "empty cube filter (pass dimension=value query parameters)")
		return
	}
	// The cube materializes with the full study; first query triggers
	// the run like /v1/portfolio does.
	if _, err := s.ensureReport(r.Context()); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	var sum risk.Summary
	var err error
	if direct {
		sum, err = s.study.CubeQueryDirect(filter)
	} else {
		sum, err = s.study.CubeQuery(filter)
	}
	if err != nil {
		s.stats.cubeMisses.Add(1)
		switch {
		case errors.Is(err, risk.ErrCubeNotBuilt):
			httpError(w, http.StatusNotFound, err.Error()+" (start the server with cube dimensions configured)")
		case errors.Is(err, risk.ErrNoCubeCell):
			httpError(w, http.StatusNotFound, err.Error())
		default:
			httpError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	s.stats.cubeQueries.Add(1)
	writeJSON(w, http.StatusOK, sum)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":    status,
		"warm":      s.warm.Load(),
		"uptime_ms": float64(time.Since(s.start)) / float64(time.Millisecond),
	})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats.snapshot(s))
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeJSON marshals before touching the ResponseWriter so an encoding
// failure becomes a 500 rather than a 200 with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b)
}
