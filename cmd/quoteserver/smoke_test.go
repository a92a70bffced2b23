package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// The server the flags build answers a cube cell from its pre-computed
// summary byte for byte as the registry recompute (check=direct) does,
// for a one-dimension and a two-dimension cell, and /v1/statz then
// reports the cube built. Contract 0 of the 6-contract book is
// coastal/property.
func TestCubeSmoke(t *testing.T) {
	o, fs := newFlags("quoteserver")
	if err := fs.Parse(strings.Fields("-events 600 -contracts 6 -locations 60 -trials 2000 -cube-dims region,lob -warm=false")); err != nil {
		t.Fatal(err)
	}
	_, srv := o.newServer()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v: %s", path, resp.StatusCode, err, body)
		}
		return string(body)
	}
	for _, cell := range []string{"region=coastal", "region=coastal&lob=property"} {
		if served, direct := get("/v1/cube?"+cell), get("/v1/cube?"+cell+"&check=direct"); served != direct {
			t.Fatalf("cell %s: served\n%s\nregistry recompute\n%s", cell, served, direct)
		}
	}
	if statz := get("/v1/statz"); !strings.Contains(statz, `"cube_built":true`) {
		t.Fatalf("/v1/statz does not report the cube built: %s", statz)
	}
}
