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
// difference, once (/v1/statz: quote_table_*).
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
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/risk"
)

func main() {
	var (
		addr = flag.String("addr", ":8087", "listen address")

		// Study sizing: the book the server quotes against.
		seed      = flag.Uint64("seed", 42, "master seed")
		events    = flag.Int("events", 10_000, "event catalogue size")
		contracts = flag.Int("contracts", 16, "contracts in the book")
		locations = flag.Int("locations", 250, "locations per contract")
		trials    = flag.Int("trials", 100_000, "portfolio simulation trials (stage 2/3 via /v1/portfolio)")

		// Serving tier.
		workers   = flag.Int("workers", 0, "quote worker pool size (0 = all cores)")
		queue     = flag.Int("queue", 0, "admission queue depth (0 = 2x workers)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request budget (queue wait + simulation)")
		defTrials = flag.Int("quote-trials", 100_000, "default trials per quote when the request omits it")
		maxTrials = flag.Int("max-quote-trials", 2_000_000, "cap on requested trials per quote")
		warm      = flag.Bool("warm", true, "pre-run stage 1 and build all quote layouts before listening")
		drainWait = flag.Duration("drain-timeout", time.Minute, "grace period for in-flight quotes on shutdown")
		cubeDims  = flag.String("cube-dims", "", "comma-separated warehouse cube dimensions (e.g. region,lob); empty disables /v1/cube")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	study := risk.NewStudy(risk.Config{
		Seed:                 *seed,
		Events:               *events,
		Contracts:            *contracts,
		LocationsPerContract: *locations,
		Trials:               *trials,
		// Each quote simulates single-threaded; the worker pool carries
		// the parallelism across concurrent requests.
		Workers:  1,
		CubeDims: splitDims(*cubeDims),
	})
	srv := serve.New(study, serve.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		Timeout:       *timeout,
		DefaultTrials: *defTrials,
		MaxTrials:     *maxTrials,
	})

	if *warm {
		log.Printf("warming: stage 1 + %d quote layouts (events=%d locations=%d)",
			study.NumContracts(), *events, *locations)
		t0 := time.Now()
		if err := srv.Warm(ctx); err != nil {
			log.Fatalf("warm-up: %v", err)
		}
		log.Printf("warm in %v", time.Since(t0).Round(time.Millisecond))
	}

	pool := *workers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	httpSrv := newHTTPServer(*addr, srv.Handler(), readHeaderTimeout, readTimeout, idleTimeout)
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (pool=%d, timeout=%v)", *addr, pool, *timeout)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	// Graceful drain: refuse new quotes, let the HTTP layer finish
	// active handlers (each holds its job to completion), then retire
	// the idle worker pool.
	log.Printf("signal received; draining (up to %v)", *drainWait)
	srv.BeginDrain()
	sdCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(sdCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Drain(sdCtx); err != nil {
		log.Printf("pool drain: %v", err)
		os.Exit(1)
	}
	fmt.Println("drained cleanly")
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

// splitDims parses a comma-separated dimension list, dropping empty
// segments so "-cube-dims region," means {region}.
func splitDims(s string) []string {
	var dims []string
	for _, d := range strings.Split(s, ",") {
		if d = strings.TrimSpace(d); d != "" {
			dims = append(dims, d)
		}
	}
	return dims
}
