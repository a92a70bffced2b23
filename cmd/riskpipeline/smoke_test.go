package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The smoke runs: a 6-contract book at 20 000 trials, MapReduce over 12
// shards on 3 nodes with the cube fed live, and the chaos that replicates
// the shards, fails each shard's first read, loses a node and speculates.
const (
	book     = "-events 2000 -contracts 6 -locations 100 -trials 20000"
	mrFlags  = "-engine mapreduce -spill -parts 12 -nodes 3 -workers 6 -cube-dims region,lob -cube-query region=coastal"
	chaosOpt = "-replicas 2 -chaos shard=*@1,rate=0.10,kill=2@1 -speculate"
)

// pipeline runs the command in the test process and returns what it
// prints; an exit code other than 0 fails the test.
func pipeline(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), append([]string{"riskpipeline"}, args...), &stdout, &stderr); code != 0 {
		t.Fatalf("riskpipeline %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.String()
}

// from returns out from the first line that contains marker to the end,
// as sed -n '/marker/,$p' prints it; a missing marker fails the test.
func from(t *testing.T, out, marker string) string {
	t.Helper()
	i := strings.Index(out, marker)
	if i < 0 {
		t.Fatalf("no %q in the output:\n%s", marker, out)
	}
	return out[strings.LastIndexByte(out[:i], '\n')+1:]
}

// recovered matches the stage-2 fault line's first three counters.
var recovered = regexp.MustCompile(`fault tolerance \(portfolio-risk\): (\d+) map failures recovered by (\d+) retries, (\d+) replica failovers`)

// mustRecover fails the test unless out reports injected faults that
// were recovered: map failures retried or replica reads failed over.
// Speculative backups alone do not count: a calm run may launch them.
func mustRecover(t *testing.T, out string) {
	t.Helper()
	if m := recovered.FindStringSubmatch(out); m == nil || m[1] == "0" && m[2] == "0" && m[3] == "0" {
		t.Fatalf("the chaos run reports no recovered fault:\n%s", out)
	}
}

func mustEqual(t *testing.T, what, want, got string) {
	t.Helper()
	if got != want {
		t.Fatalf("%s differs:\n--- want\n%s\n--- got\n%s", what, want, got)
	}
}

// Injected shard loss, a node kill and speculative backups must leave
// the cube cell and both books bit for bit as the calm run prints them.
// The cube is fed live as map tasks commit, so its cell shows that every
// trial reached the warehouse exactly once.
func TestChaosSmoke(t *testing.T) {
	args := strings.Fields(book + " " + mrFlags)
	calm := pipeline(t, args...)
	stormy := pipeline(t, append(args, strings.Fields(chaosOpt)...)...)
	mustRecover(t, stormy)
	mustEqual(t, "cube cell and books under chaos", from(t, calm, "=== cube cell"), from(t, stormy, "=== cube cell"))
}

// Reinstatements are terms of the book, which every host engine applies
// through the same trial-range code: streaming or spilling the trials
// must not move the premium line or either book, and MapReduce, calm
// and under chaos, must print the fused run's premium line and books
// with the cube fed live.
func TestReinstatementsSmoke(t *testing.T) {
	runs := []struct{ name, flags string }{
		{"fused", ""},
		{"stream", "-stream -batch 997"},
		{"spill", "-spill -parts 5"},
		{"calm", mrFlags},
		{"chaos", mrFlags + " " + chaosOpt},
	}
	books := map[string]string{}
	for _, r := range runs {
		out := pipeline(t, strings.Fields(book+" -reinstatements "+r.flags)...)
		if r.name == "chaos" {
			mustRecover(t, out)
		}
		books[r.name] = from(t, out, "reinstatement premium")
	}
	if !strings.Contains(books["calm"], "=== cube cell") {
		t.Fatalf("the MapReduce run prints no cube cell:\n%s", books["calm"])
	}
	mustEqual(t, "streamed premium and books", books["fused"], books["stream"])
	mustEqual(t, "spilled premium and books", books["fused"], books["spill"])
	mustEqual(t, "chaos premium, cube cell and books", books["calm"], books["chaos"])
	premiumAndBooks := func(b string) string {
		return b[:strings.IndexByte(b, '\n')+1] + from(t, b, "=== catastrophe book ===")
	}
	mustEqual(t, "MapReduce premium and books", premiumAndBooks(books["fused"]), premiumAndBooks(books["calm"]))
}

// The two-process handoff: one run spills the trials into a directory
// and exits, a second re-attaches and aggregates, and its books must be
// the fused run's. A shard is encoded once and the same bytes go to each
// replica, so both copies of every shard must be byte-identical, and a
// committed spill leaves no temp file. Six shards instead of the one
// 20 000 trials default to put copies on every node.
func TestHandoffSmoke(t *testing.T) {
	args := strings.Fields(book + " -engine mapreduce")
	fused := pipeline(t, append(args, "-spill")...)
	dir := t.TempDir()
	pipeline(t, append(args, "-mode", "spill", "-dir", dir, "-replicas", "2", "-parts", "6")...)

	copies := map[string][][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case strings.Contains(d.Name(), ".tmp-"):
			return fmt.Errorf("the spill left a temp file: %s", path)
		case !d.IsDir() && strings.HasPrefix(d.Name(), "yelt.part-") && strings.HasPrefix(filepath.Base(filepath.Dir(path)), "node-"):
			b, err := os.ReadFile(path)
			copies[d.Name()] = append(copies[d.Name()], b)
			return err
		}
		return nil
	})
	if err != nil || len(copies) == 0 {
		t.Fatalf("the spill under %s: %v, %d shards", dir, err, len(copies))
	}
	for name, c := range copies {
		if len(c) != 2 || !bytes.Equal(c[0], c[1]) {
			t.Fatalf("shard %s has %d copies, want 2 byte-identical ones", name, len(c))
		}
	}

	twoProc := pipeline(t, append(args, "-mode", "aggregate", "-dir", dir)...)
	mustEqual(t, "two-process books", from(t, fused, "=== catastrophe book ==="), from(t, twoProc, "=== catastrophe book ==="))
}
