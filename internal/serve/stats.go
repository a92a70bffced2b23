package serve

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/risk"
)

// stats holds the serving counters exposed by /v1/statz. Counters are
// atomics; the latency reservoir has its own lock.
type stats struct {
	received    atomic.Int64 // every request hitting /v1/quote
	served      atomic.Int64 // 200s
	rejected    atomic.Int64 // 429s (queue full)
	timeouts    atomic.Int64 // 503s (budget expired)
	unavailable atomic.Int64 // 503s (draining)
	badRequests atomic.Int64 // 400s
	failed      atomic.Int64 // 500s
	inflight    atomic.Int64 // quotes currently simulating
	cubeQueries atomic.Int64 // /v1/cube 200s
	cubeMisses  atomic.Int64 // /v1/cube 404s/500s (unbuilt cube or no cell)
	lat         *reservoir
}

// statzResponse is the /v1/statz document.
type statzResponse struct {
	UptimeMS    float64 `json:"uptime_ms"`
	Contracts   int     `json:"contracts"`
	Workers     int     `json:"workers"`
	QueueDepth  int     `json:"queue_depth"`
	QueueLen    int     `json:"queue_len"`
	Inflight    int64   `json:"inflight"`
	Received    int64   `json:"received"`
	Served      int64   `json:"served"`
	Rejected    int64   `json:"rejected"`
	Timeouts    int64   `json:"timeouts"`
	Unavailable int64   `json:"unavailable"`
	BadRequests int64   `json:"bad_requests"`
	Failed      int64   `json:"failed"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	// Warehouse-cube state (zero/false until the backing study's first
	// full run materializes a cube) and serve's own cube counters.
	risk.CubeInfo
	CubeQueries int64 `json:"cube_queries"`
	CubeMisses  int64 `json:"cube_misses"`
	// The backing study's resident quote trial table.
	risk.QuoteTableInfo
}

func (st *stats) snapshot(s *Server) statzResponse {
	lat := st.lat.sorted()
	out := statzResponse{
		UptimeMS:    float64(time.Since(s.start)) / float64(time.Millisecond),
		Contracts:   s.q.NumContracts(),
		Workers:     s.cfg.Workers,
		QueueDepth:  s.cfg.QueueDepth,
		QueueLen:    len(s.jobs),
		Inflight:    st.inflight.Load(),
		Received:    st.received.Load(),
		Served:      st.served.Load(),
		Rejected:    st.rejected.Load(),
		Timeouts:    st.timeouts.Load(),
		Unavailable: st.unavailable.Load(),
		BadRequests: st.badRequests.Load(),
		Failed:      st.failed.Load(),
		P50MS:       float64(quantile(lat, 0.50)) / float64(time.Millisecond),
		P99MS:       float64(quantile(lat, 0.99)) / float64(time.Millisecond),
		CubeQueries: st.cubeQueries.Load(),
		CubeMisses:  st.cubeMisses.Load(),
	}
	if s.study != nil {
		out.CubeInfo = s.study.CubeInfo()
		out.QuoteTableInfo = s.study.QuoteTableInfo()
	}
	return out
}

// reservoir keeps the most recent latencies in a fixed-size ring and
// answers quantiles over them — a sliding window, so /v1/statz
// reflects recent behavior rather than all-time history.
type reservoir struct {
	mu   sync.Mutex
	buf  []time.Duration
	next int
	n    int
}

func newReservoir(size int) *reservoir {
	return &reservoir{buf: make([]time.Duration, size)}
}

func (r *reservoir) observe(d time.Duration) {
	r.mu.Lock()
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// sorted returns an ascending copy of the window: one snapshot, one
// sort, however many quantiles are then read from it.
func (r *reservoir) sorted() []time.Duration {
	r.mu.Lock()
	cp := slices.Clone(r.buf[:r.n])
	r.mu.Unlock()
	slices.Sort(cp)
	return cp
}

// quantile reads the p-quantile (lower order statistic) of an
// ascending window, 0 when it is empty.
func quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}
