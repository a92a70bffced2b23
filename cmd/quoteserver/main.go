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
	"flag"
	"fmt"
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
	// The book the server quotes against. Each quote simulates
	// single-threaded; the worker pool carries the parallelism across
	// concurrent requests.
	cfg := risk.DefaultConfig()
	cfg.Workers = 1
	cliflags.Seed(&cfg.Seed)
	cliflags.Events(&cfg.Events)
	cliflags.Contracts(&cfg.Contracts)
	cliflags.Locations(&cfg.LocationsPerContract)
	cliflags.Trials(&cfg.Trials)
	cliflags.CubeDims(&cfg.CubeDims)

	// The serving tier.
	srvCfg := serve.Config{Timeout: 30 * time.Second, DefaultTrials: 100_000, MaxTrials: 2_000_000}
	cliflags.Workers(&srvCfg.Workers)
	flag.IntVar(&srvCfg.QueueDepth, "queue", srvCfg.QueueDepth, "admission queue depth (0 = 2x workers)")
	flag.DurationVar(&srvCfg.Timeout, "timeout", srvCfg.Timeout, "per-request budget (queue wait + simulation)")
	flag.IntVar(&srvCfg.DefaultTrials, "quote-trials", srvCfg.DefaultTrials, "default trials per quote when the request omits it")
	flag.IntVar(&srvCfg.MaxTrials, "max-quote-trials", srvCfg.MaxTrials, "cap on requested trials per quote")
	var (
		addr      = flag.String("addr", ":8087", "listen address")
		warm      = flag.Bool("warm", true, "pre-run stage 1 and build all quote layouts before listening")
		drainWait = flag.Duration("drain-timeout", time.Minute, "grace period for in-flight quotes on shutdown")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	study := risk.NewStudy(cfg)
	srv := serve.New(study, srvCfg)

	if *warm {
		log.Printf("warming: stage 1 + %d quote layouts (events=%d locations=%d)",
			study.NumContracts(), cfg.Events, cfg.LocationsPerContract)
		t0 := time.Now()
		if err := srv.Warm(ctx); err != nil {
			log.Fatalf("warm-up: %v", err)
		}
		log.Printf("warm in %v", time.Since(t0).Round(time.Millisecond))
	}

	pool := srvCfg.Workers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	httpSrv := newHTTPServer(*addr, srv.Handler(), readHeaderTimeout, readTimeout, idleTimeout)
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (pool=%d, timeout=%v)", *addr, pool, srvCfg.Timeout)
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
