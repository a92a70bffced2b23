// Command quoteserver serves real-time per-contract quotes over a
// risk.Study — the paper's §II use case ("a 1 million trial aggregate
// simulation on a typical contract only takes 25 seconds and can
// therefore support real-time pricing") as a long-running HTTP/JSON
// service.
//
// Startup runs stage 1 (catalogue, ELTs, loss index) and pre-builds
// every per-contract quote layout, so no quote pays for
// initialization; -warm=false defers that work to first demand. The
// trial years are shared by every quote and kept resident: the first
// quote to ask for more of them than any before it generates the
// difference, once (/v1/statz: quote_table_*). -trials sizes the
// portfolio run behind /v1/portfolio; a quote's trial count is its
// request's, -quote-trials when the request omits it. The book flags
// (-seed, -events, -contracts, -locations) mean what they mean to
// cmd/riskpipeline and default alike, so both price the same book.
// Quotes run on a bounded worker pool with admission control: beyond
// -queue waiting requests the server answers 429 immediately, and a
// request that cannot finish inside -timeout answers 503. SIGINT or
// SIGTERM begins a graceful drain: /v1/healthz flips to draining (so
// load balancers stop routing), the HTTP layer stops accepting, and
// in-flight quotes run to completion before exit.
//
// With -cube-dims the first /v1/portfolio or /v1/cube request also
// materializes the warehouse cube over those dimensions, after which
// GET /v1/cube?region=...&lob=... answers from pre-computed summaries
// — a dictionary lookup, no simulation.
//
// Endpoints: POST /v1/quote, GET /v1/portfolio, GET /v1/cube,
// GET /v1/healthz, GET /v1/statz.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cliflags"
	"repro/internal/serve"
	"repro/risk"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options is what the flags set: the book the server quotes against,
// the serving tier, and the listener's own settings.
type options struct {
	study     risk.Config
	serve     serve.Config
	addr      string
	warm      bool
	drainWait time.Duration
}

// newFlags returns the server's defaults and the flag set named name
// that binds every flag to them.
func newFlags(name string) (*options, *flag.FlagSet) {
	// Each quote simulates single-threaded; the worker pool carries the
	// parallelism across concurrent requests.
	o := &options{
		study: risk.DefaultConfig(),
		serve: serve.Config{Timeout: 30 * time.Second, DefaultTrials: 100_000, MaxTrials: 2_000_000},
	}
	o.study.Workers = 1
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	cliflags.Seed(fs, &o.study.Seed)
	cliflags.Events(fs, &o.study.Events)
	cliflags.Contracts(fs, &o.study.Contracts)
	cliflags.Locations(fs, &o.study.LocationsPerContract)
	cliflags.Trials(fs, &o.study.Trials)
	cliflags.CubeDims(fs, &o.study.CubeDims)
	cliflags.Workers(fs, &o.serve.Workers)
	fs.IntVar(&o.serve.QueueDepth, "queue", o.serve.QueueDepth, "admission queue depth (0 = 2x workers)")
	fs.DurationVar(&o.serve.Timeout, "timeout", o.serve.Timeout, "per-request budget (queue wait + simulation)")
	fs.IntVar(&o.serve.DefaultTrials, "quote-trials", o.serve.DefaultTrials, "default trials per quote when the request omits it")
	fs.IntVar(&o.serve.MaxTrials, "max-quote-trials", o.serve.MaxTrials, "cap on requested trials per quote")
	fs.StringVar(&o.addr, "addr", ":8087", "listen address")
	fs.BoolVar(&o.warm, "warm", true, "pre-run stage 1 and build all quote layouts before listening")
	fs.DurationVar(&o.drainWait, "drain-timeout", time.Minute, "grace period for in-flight quotes on shutdown")
	return o, fs
}

// newServer builds the study the options describe and the server that
// quotes against it.
func (o *options) newServer() (*risk.Study, *serve.Server) {
	study := risk.NewStudy(o.study)
	return study, serve.New(study, o.serve)
}

// run is the command: it parses args (args[0] names the program),
// serves until ctx is done, then drains, logging to stderr. It returns
// the exit code: 2 for a bad command line, 1 for a server that failed
// or could not drain.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o, fs := newFlags(args[0])
	fs.SetOutput(stderr)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger := log.New(stderr, "", log.LstdFlags)

	study, srv := o.newServer()
	if o.warm {
		logger.Printf("warming: stage 1 + %d quote layouts (events=%d locations=%d)",
			study.NumContracts(), o.study.Events, o.study.LocationsPerContract)
		t0 := time.Now()
		if err := srv.Warm(ctx); err != nil {
			logger.Printf("warm-up: %v", err)
			return 1
		}
		logger.Printf("warm in %v", time.Since(t0).Round(time.Millisecond))
	}

	pool := o.serve.Workers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	httpSrv := newHTTPServer(o.addr, srv.Handler(), readHeaderTimeout, readTimeout, idleTimeout)
	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (pool=%d, timeout=%v)", o.addr, pool, o.serve.Timeout)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		logger.Printf("serve: %v", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: refuse new quotes, let the HTTP layer finish
	// active handlers (each holds its job to completion), then retire
	// the idle worker pool.
	logger.Printf("signal received; draining (up to %v)", o.drainWait)
	srv.BeginDrain()
	sdCtx, cancel := context.WithTimeout(context.Background(), o.drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(sdCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := srv.Drain(sdCtx); err != nil {
		logger.Printf("pool drain: %v", err)
		return 1
	}
	fmt.Fprintln(stdout, "drained cleanly")
	return 0
}

// Bounds on what a client may make the HTTP layer wait for: the request
// line and headers, the whole request (a quote body is under 64 KiB),
// and an idle keep-alive connection.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 15 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the listener-side server with every read bounded,
// so a client that stalls mid-request is disconnected instead of holding
// a connection and its goroutine for good. WriteTimeout stays unset: it
// would run from the end of the request headers and so cap a quote's
// simulation, which the per-request -timeout already bounds from inside
// the handler.
func newHTTPServer(addr string, h http.Handler, readHeader, read, idle time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeader,
		ReadTimeout:       read,
		IdleTimeout:       idle,
	}
}
