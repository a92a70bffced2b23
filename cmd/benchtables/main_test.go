package main

import (
	"flag"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		want    []int
		wantErr string
	}{
		{spec: "all", want: []int{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{spec: "9, 1,9", want: []int{1, 9}},
		{spec: "0", wantErr: "unknown experiment 0"},
		{spec: "19", wantErr: "unknown experiment 19"},
		{spec: "x", wantErr: `bad experiment "x"`},
	} {
		got, err := selectExperiments(tc.spec)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("-e %s: err = %v, want %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("-e %s: got %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}
}

// Every experiment that once had a table and no longer does says so,
// with the commit that still runs it and where to look now.
func TestRemovedExperiments(t *testing.T) {
	for n := 10; n <= 18; n++ {
		r, ok := removed[n]
		if !ok {
			t.Errorf("experiment %d is neither run nor listed as removed", n)
			continue
		}
		if runners[n] != nil {
			t.Errorf("experiment %d is both run and listed as removed", n)
		}
		_, err := selectExperiments("1," + strconv.Itoa(n))
		if err == nil {
			t.Errorf("-e 1,%d: no error", n)
			continue
		}
		for _, want := range []string{"experiment " + strconv.Itoa(n) + " was removed", r.lastRun, r.now} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("-e 1,%d: %q does not contain %q", n, err, want)
			}
		}
	}
}

// EXPERIMENTS.md's index table and the runners table must agree, so the
// docs cannot cite a table that no longer exists: a row that names an
// e<N>… function names the runner of that number, every runner has a
// row that names it, and the row of a removed experiment names the
// commit that last ran it.
func TestExperimentsIndexMatchesRunners(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	rowRE := regexp.MustCompile(`(?m)^\| E(\d+) \|.*$`)
	fnRE := regexp.MustCompile("`(e\\d+[A-Z]\\w*)`")
	named := map[int]bool{}
	for _, m := range rowRE.FindAllStringSubmatch(string(doc), -1) {
		n, _ := strconv.Atoi(m[1])
		fns := fnRE.FindAllStringSubmatch(m[0], -1)
		if r, ok := removed[n]; ok {
			if !strings.Contains(m[0], r.lastRun) {
				t.Errorf("E%d is removed: its row must name %s, the commit that last ran it", n, r.lastRun)
			}
			continue
		}
		run := runners[n]
		if run == nil {
			t.Errorf("E%d has an index row but is neither run nor listed as removed", n)
			continue
		}
		want := runtime.FuncForPC(reflect.ValueOf(run).Pointer()).Name()
		want = want[strings.LastIndexByte(want, '.')+1:]
		for _, fn := range fns {
			if fn[1] != want {
				t.Errorf("E%d: the row names %s, the runner is %s", n, fn[1], want)
			}
			named[n] = true
		}
	}
	for n := range runners {
		if !named[n] {
			t.Errorf("E%d has a runner but no index row names it", n)
		}
	}
}

// The flag set as -h lists it: every flag's name, default and usage, in
// order. A flag added, dropped or reworded, or a default that moved,
// fails here.
func TestFlagSet(t *testing.T) {
	want := []struct{ name, def, usage string }{
		{"e", "all", "experiments to run: 'all' or comma list like '1,4,5'"},
		{"quick", "false", "smaller sizes for a fast smoke run"},
		{"seed", "42", "master seed"},
		{"workers", "0", "parallelism bound (0 = all cores)"},
	}
	_, fs := newFlags("benchtables")
	var got []struct{ name, def, usage string }
	fs.VisitAll(func(f *flag.Flag) { got = append(got, struct{ name, def, usage string }{f.Name, f.DefValue, f.Usage}) })
	if !slices.Equal(got, want) {
		t.Errorf("flags\n got %q\nwant %q", got, want)
	}
}
