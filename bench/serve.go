package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/risk"
)

// Open-loop arrivals: independent underwriters, who do not wait for each
// other. Every fifth arrival is a dashboard read of the cube instead of
// a quote.
const (
	openRate  = 20.0 // arrivals per second at full size
	cubeEvery = 5
)

// quoteAnswer is the body of a 200 from POST /v1/quote.
type quoteAnswer struct {
	ContractID uint32  `json:"contract_id"`
	Trials     int     `json:"trials"`
	AAL        float64 `json:"aal"`
	StdDev     float64 `json:"stddev"`
	TVaR99     float64 `json:"tvar99"`
	PML250     float64 `json:"pml250"`
	Premium    float64 `json:"premium"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// numbers are the answer's numeric fields, without the one that is a
// timing.
func (a quoteAnswer) numbers() []float64 {
	return []float64{float64(a.ContractID), float64(a.Trials), a.AAL, a.StdDev, a.TVaR99, a.PML250, a.Premium}
}

// request is one generated arrival. cube requests read a cell; the
// others ask for a quote.
type request struct {
	cube     bool
	contract int
	trials   int
}

// schedule derives request i from the seed alone, so the mix does not
// depend on timing: contract uniform over the book, the small trial
// class four times in five.
type schedule struct {
	seed  uint64
	shape shape
}

func (s schedule) quote(i int) request {
	r := rand.New(rand.NewPCG(s.seed, uint64(i)))
	req := request{contract: r.IntN(s.shape.contracts), trials: s.shape.quoteTrials[0]}
	if r.IntN(5) == 0 {
		req.trials = s.shape.quoteTrials[1]
	}
	return req
}

// outcome is what the client saw of one request.
type outcome struct {
	req     request
	ok      bool // answered 200
	latency float64
	late    float64 // open loop: how long after its due time it was sent
	answer  quoteAnswer
}

// stack is the system under test: a study behind the quote server
// behind a real HTTP listener on the loopback interface.
type stack struct {
	study     *risk.Study
	srv       *serve.Server
	ts        *httptest.Server
	client    *http.Client
	warmS     float64
	portfolio []float64 // the numbers of GET /v1/portfolio's two summaries
}

// startStack is quote-serve's set-up: what an operator waits for before
// the first quote can be served, plus the first portfolio read, which
// runs stages 2 and 3 and builds the cube.
func startStack(ctx context.Context, w workload, seed uint64, conns int) (*stack, error) {
	s := &stack{study: risk.NewStudy(w.riskConfig(seed))}
	s.srv = serve.New(s.study, serve.Config{Workers: runtime.GOMAXPROCS(0)})
	start := time.Now()
	if err := s.srv.Warm(ctx); err != nil {
		s.stopPool(ctx)
		return nil, err
	}
	s.warmS = time.Since(start).Seconds()
	s.ts = httptest.NewServer(s.srv.Handler())
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	var port struct {
		Catastrophe, Enterprise summaryAnswer
	}
	if err := s.getJSON("/v1/portfolio", &port); err != nil {
		s.stop(ctx)
		return nil, err
	}
	s.portfolio = append(port.Catastrophe.numbers(), port.Enterprise.numbers()...)
	return s, nil
}

func (s *stack) stop(ctx context.Context) {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.stopPool(ctx)
}

// stopPool retires the server's workers. Drain only fails when ctx
// ends first, and then the process is ending too.
func (s *stack) stopPool(ctx context.Context) { _ = s.srv.Drain(ctx) }

// summaryAnswer is a risk summary as the server writes it; numbers lists
// its fields in the order summaryFloats lists a metrics.Summary, so the
// two digests are comparable.
type summaryAnswer struct {
	Trials        int     `json:"trials"`
	AAL           float64 `json:"aal"`
	StdDev        float64 `json:"stddev"`
	VaR99         float64 `json:"var99"`
	TVaR99        float64 `json:"tvar99"`
	VaR995        float64 `json:"var995"`
	TVaR995       float64 `json:"tvar995"`
	ReturnPeriods []struct {
		Years float64 `json:"years"`
		OEP   float64 `json:"oep"`
		AEP   float64 `json:"aep"`
	} `json:"return_periods"`
}

func (a summaryAnswer) numbers() []float64 {
	vs := []float64{float64(a.Trials), a.AAL, a.StdDev, a.VaR99, a.TVaR99, a.VaR995, a.TVaR995}
	for _, r := range a.ReturnPeriods {
		vs = append(vs, r.Years, r.OEP, r.AEP)
	}
	return vs
}

func (s *stack) getJSON(path string, into any) error {
	resp, err := s.client.Get(s.ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// do sends one request and reads the whole answer; ok means 200. A
// refusal (429), a timeout (503) and a transport error all count as
// not ok.
func (s *stack) do(req request) (ok bool, answer quoteAnswer) {
	var resp *http.Response
	var err error
	if req.cube {
		regions := []string{"coastal", "interior", "lakes", "alpine"} // warehouse.DefaultAttrs' values
		resp, err = s.client.Get(s.ts.URL + "/v1/cube?region=" + regions[req.contract%len(regions)])
	} else {
		body := fmt.Sprintf(`{"contract": %d, "trials": %d}`, req.contract, req.trials)
		resp, err = s.client.Post(s.ts.URL+"/v1/quote", "application/json", bytes.NewBufferString(body))
	}
	if err != nil {
		return false, answer
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		return false, answer
	}
	if req.cube {
		_, err = io.Copy(io.Discard, resp.Body)
	} else {
		err = json.NewDecoder(resp.Body).Decode(&answer)
	}
	return err == nil, answer
}

// phase is one load phase. clients goroutines, each with at most one
// request in flight, draw request indices from a shared counter. In the
// closed loop a client sends its next request as soon as the previous
// one is answered, until the deadline has passed and minOps requests
// were sent. In the open loop request i is due at i/rate seconds and a
// client sleeps until then; latency counts from the due time, so a
// stall is charged to the requests it delays.
type phase struct {
	name     string
	open     bool
	seconds  float64
	minOps   int
	clients  int
	schedule schedule
	rec      *recorder
}

func (p phase) run(s *stack) (outcomes []outcome, wall float64) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	root := p.rec.begin("serve."+p.name, 0)
	start := time.Now()
	deadline := start.Add(time.Duration(p.seconds * float64(time.Second)))
	rate := p.schedule.shape.openRate
	arrivals := max(int(p.seconds*rate), p.minOps)
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				var o outcome
				sent := time.Now()
				if p.open {
					if i >= arrivals {
						return
					}
					due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					time.Sleep(time.Until(due))
					o.late = max(time.Since(due).Seconds(), 0)
					sent = due
				} else if i >= p.minOps && !time.Now().Before(deadline) {
					return
				}
				o.req = p.schedule.quote(i)
				o.req.cube = p.open && i%cubeEvery == cubeEvery-1
				id := p.rec.begin("serve.request", root)
				o.ok, o.answer = s.do(o.req)
				p.rec.end(id)
				o.latency = time.Since(sent).Seconds()
				if o.ok && !o.req.cube {
					// The server reports how long the simulation took;
					// placed at the end of the request, it leaves queue
					// wait, HTTP and JSON as the request's self time.
					p.rec.endedChild("risk.price", id, time.Duration(o.answer.ElapsedMS*float64(time.Millisecond)))
				}
				mu.Lock()
				outcomes = append(outcomes, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.rec.end(root)
	return outcomes, time.Since(start).Seconds()
}

// tally splits a phase's outcomes into the latencies of answered quotes
// and cube reads, and counts the requests not answered 200.
type tally struct {
	quoteLat, cubeLat, overhead []float64
	trials                      float64
	lateMax                     float64
	failed                      int
}

func tallyOutcomes(outcomes []outcome) tally {
	var t tally
	for _, o := range outcomes {
		t.lateMax = max(t.lateMax, o.late)
		switch {
		case !o.ok:
			t.failed++
		case o.req.cube:
			t.cubeLat = append(t.cubeLat, o.latency)
		default:
			t.quoteLat = append(t.quoteLat, o.latency)
			t.overhead = append(t.overhead, o.latency-o.answer.ElapsedMS/1e3)
			t.trials += float64(o.req.trials)
		}
	}
	return t
}

// twinQuotes prices every (contract, trial class) pair directly on a
// second, identically configured study. A quote is a pure function of
// the pair, so these are the expected answers for every served quote.
// The calls double as the probe of the risk layer without HTTP: total
// and sim are the wall time and the reported simulation time of the
// small-class quotes, the class the median served quote belongs to.
func twinQuotes(ctx context.Context, w workload, seed uint64) (want map[request]quoteAnswer, total, sim []float64, err error) {
	twin := risk.NewStudy(w.riskConfig(seed))
	if err := twin.WarmQuotes(ctx); err != nil {
		return nil, nil, nil, err
	}
	want = make(map[request]quoteAnswer)
	for c := 0; c < w.shape.contracts; c++ {
		for class, trials := range w.shape.quoteTrials {
			start := time.Now()
			q, err := twin.PriceContract(ctx, c, trials)
			if err != nil {
				return nil, nil, nil, err
			}
			if class == 0 {
				total = append(total, time.Since(start).Seconds())
				sim = append(sim, q.Elapsed.Seconds())
			}
			want[request{contract: c, trials: trials}] = quoteAnswer{q.ContractID, q.Trials, q.AAL, q.StdDev, q.TVaR99, q.PML250, q.Premium, 0}
		}
	}
	return want, total, sim, nil
}

// checkAnswers compares every served quote with the twin's, bit for
// bit, and counts a mismatch as a failed operation. The run's digest
// covers the portfolio report and the expected answers in (contract,
// class) order: the same whatever number of quotes a run had time for.
func checkAnswers(rep *report, w workload, portfolio []float64, outcomes []outcome, want map[request]quoteAnswer) {
	for _, o := range outcomes {
		if o.ok && !o.req.cube && digestFloats(o.answer.numbers()...) != digestFloats(want[o.req].numbers()...) {
			rep.Failed++
			rep.fail("quote for contract %d at %d trials differs from a direct PriceContract", o.req.contract, o.req.trials)
		}
	}
	expected := portfolio
	for c := 0; c < w.shape.contracts; c++ {
		for _, trials := range w.shape.quoteTrials {
			expected = append(expected, want[request{contract: c, trials: trials}].numbers()...)
		}
	}
	rep.checkDigests([]uint64{digestFloats(expected...)})
}

// runServe measures quote-serve. With tracing off: the closed loop,
// clients that each wait for their answer, which is where the
// end-to-end latency and throughput come from. With tracing on: the
// traced replica of the study's pipeline run, direct probes of the
// layers under the server, an open-loop phase and a closed-loop phase
// with a span per request.
func runServe(ctx context.Context, w workload, opt options) (*report, error) {
	rep := newReport(w, opt)
	clients := runtime.GOMAXPROCS(0)
	var s *stack
	setups, err := timedSetups(w.shape.setupReps, func() (err error) {
		if s != nil {
			s.stop(ctx)
		}
		if err := oracleCheck(ctx, w, opt.seed); err != nil {
			return err
		}
		s, err = startStack(ctx, w, opt.seed, clients)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer s.stop(ctx)

	sched := schedule{seed: opt.seed, shape: w.shape}
	// One untimed quote per connection first, so that the timed ones do
	// not pay for connecting.
	phase{name: "connect", minOps: clients, clients: clients, schedule: sched}.run(s)
	resetPeakRSS() // the load starts without the set-ups' garbage, and its peak is its own
	closed := phase{name: "closed", seconds: opt.seconds, minOps: w.shape.minOps, clients: clients, schedule: sched}
	var outcomes []outcome
	if !opt.trace {
		cpu0 := cpuSeconds()
		var wall float64
		outcomes, wall = closed.run(s)
		cpu := cpuSeconds() - cpu0
		t := tallyOutcomes(outcomes)
		rep.Samples = len(t.quoteLat)
		if rep.Samples > 0 {
			rep.set("setup_s", median(setups))
			rep.set("op_p50_ms", 1e3*median(t.quoteLat))
			rep.set("trials_per_s", t.trials/wall)
			rep.set("cpu_s_per_mtrial", cpu/(t.trials/1e6))
			rep.set("peak_rss_mib", peakRSSMiB())
		}
	} else if outcomes, err = serveTraced(ctx, w, opt, s, closed, rep); err != nil {
		return nil, err
	}
	rep.Attempted += len(outcomes)
	rep.Failed += tallyOutcomes(outcomes).failed

	want, total, sim, err := twinQuotes(ctx, w, opt.seed)
	if err != nil {
		return nil, err
	}
	checkAnswers(rep, w, s.portfolio, outcomes, want)
	if opt.trace {
		post := make([]float64, len(total))
		for i := range total {
			post[i] = total[i] - sim[i]
		}
		rep.set("risk.quote_total_ms", 1e3*median(total))
		rep.set("risk.quote_sim_ms", 1e3*median(sim))
		rep.set("risk.quote_post_ms", 1e3*median(post))
	}
	if rep.Failed > 0 {
		rep.fail("%d of %d operations failed", rep.Failed, rep.Attempted)
	}
	return rep, nil
}

// serveTraced is quote-serve's traced run; it returns the outcomes of
// both load phases for the answer check.
func serveTraced(ctx context.Context, w workload, opt options, s *stack, closed phase, rep *report) ([]outcome, error) {
	rec := newRecorder(w.name)
	rec.nextPass()
	// The replica re-runs the study's pipeline (stages 1 to 3 and the
	// cube). The server's own run was made during set-up and is not
	// timed, so it is the replica's reference for the digest only.
	cat, ent, counts, err := tracedPass(ctx, w.coreConfig(opt.seed, ""), rec)
	if err != nil {
		return nil, err
	}
	rep.Attempted++
	if d, served := reportDigest(cat, ent), digestFloats(s.portfolio...); d != served {
		rep.Failed++
		rep.fail("replica digest %016x differs from GET /v1/portfolio's %016x", d, served)
	}
	spans := rec.snapshot()
	rep.setAll(layerMetrics(spans, counts, w.workerCount(), 0))
	rep.set("risk.warm_s", s.warmS)
	rep.set("warehouse.query_us", 1e6*timePer(1000, func() { _, _ = s.study.CubeQuery(map[string]string{"region": "coastal"}) }))

	half := opt.seconds / 2
	open := phase{name: "open", open: true, seconds: half, minOps: w.shape.minOpen, clients: closed.clients, schedule: closed.schedule, rec: rec}
	openOut, _ := open.run(s)
	closed.seconds, closed.rec = half, rec
	closedOut, wall := closed.run(s)
	ot, ct := tallyOutcomes(openOut), tallyOutcomes(closedOut)
	rep.Samples = len(ct.quoteLat)
	rep.set("serve.closed_qps", float64(len(ct.quoteLat))/wall)
	rep.set("serve.closed_p95_ms", 1e3*percentile(ct.quoteLat, 0.95))
	rep.set("serve.closed_p99_ms", 1e3*percentile(ct.quoteLat, 0.99))
	rep.set("serve.overhead_ms", 1e3*median(ct.overhead))
	rep.set("serve.open_p50_ms", 1e3*median(ot.quoteLat))
	rep.set("serve.open_p95_ms", 1e3*percentile(ot.quoteLat, 0.95))
	rep.set("serve.open_late_max_ms", 1e3*ot.lateMax)
	rep.set("serve.cube_p50_us", 1e6*median(ot.cubeLat))
	var statz struct {
		Rejected int64   `json:"rejected"`
		Timeouts int64   `json:"timeouts"`
		P50MS    float64 `json:"p50_ms"`
	}
	if err := s.getJSON("/v1/statz", &statz); err != nil {
		return nil, err
	}
	rep.set("serve.rejected", float64(statz.Rejected))
	rep.set("serve.timeouts", float64(statz.Timeouts))
	rep.set("serve.statz_p50_ms", statz.P50MS)
	if opt.traceOut != "" {
		if err := rec.dump(opt.traceOut); err != nil {
			return nil, err
		}
	}
	return append(openOut, closedOut...), nil
}

// timePer returns the mean duration in seconds of n calls of fn.
func timePer(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(start).Seconds() / float64(n)
}
