package main

import (
	"flag"
	"io"
	"net"
	"net/http"
	"slices"
	"testing"
	"time"
)

// A client that opens a connection and never finishes its request
// headers must be disconnected by the server's read-header bound, while
// a complete request on the same server is answered.
func TestHTTPServerClosesStalledHeaders(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNoContent) })
	if srv := newHTTPServer("", h, 1, 2, 3); srv.ReadHeaderTimeout != 1 || srv.ReadTimeout != 2 || srv.IdleTimeout != 3 || srv.WriteTimeout != 0 {
		t.Fatalf("timeouts (header, read, idle, write) = %v, %v, %v, %v; want 1ns, 2ns, 3ns and none (the per-quote timeout bounds the handler)",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, srv.WriteTimeout)
	}
	// Only the header bound is set, so nothing else can be what hangs up.
	srv := newHTTPServer("", h, 50*time.Millisecond, 0, 0)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	})

	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("complete request: status %d", resp.StatusCode)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/quote HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}
	// The client's own deadline only turns a server that never hangs up
	// into a failure; a read that ends without error is the server's
	// close.
	if err := conn.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept a connection with unfinished headers open: %v", err)
	}
}

// The flag set as -h lists it: every flag's name, default and usage, in
// order. A flag added, dropped or reworded, or a default that moved,
// fails here.
func TestFlagSet(t *testing.T) {
	want := []struct{ name, def, usage string }{
		{"addr", ":8087", "listen address"},
		{"contracts", "16", "number of contracts"},
		{"cube-dims", "", "comma-separated `list` of warehouse cube dimensions, e.g. region,lob (empty = no cube)"},
		{"drain-timeout", "1m0s", "grace period for in-flight quotes on shutdown"},
		{"events", "10000", "stochastic catalogue size"},
		{"locations", "300", "locations per contract"},
		{"max-quote-trials", "2000000", "cap on requested trials per quote"},
		{"queue", "0", "admission queue depth (0 = 2x workers)"},
		{"quote-trials", "100000", "default trials per quote when the request omits it"},
		{"seed", "1", "master seed"},
		{"timeout", "30s", "per-request budget (queue wait + simulation)"},
		{"trials", "100000", "simulated trial years"},
		{"warm", "true", "pre-run stage 1 and build all quote layouts before listening"},
		{"workers", "0", "parallelism bound (0 = all cores)"},
	}
	_, fs := newFlags("quoteserver")
	var got []struct{ name, def, usage string }
	fs.VisitAll(func(f *flag.Flag) { got = append(got, struct{ name, def, usage string }{f.Name, f.DefValue, f.Usage}) })
	if !slices.Equal(got, want) {
		t.Errorf("flags\n got %q\nwant %q", got, want)
	}
}
