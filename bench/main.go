// Command bench is the repository's benchmark: four named workloads,
// end-to-end metrics with tracing off, per-layer metrics from a traced
// run, and a correctness check in the same command. BENCHMARK.json at
// the repository root is its contract; README.md in this directory
// explains the workloads and the metrics.
//
// One workload, as the benchmark driver runs it (the last line of
// standard output is the result):
//
//	go run ./bench --workload trial-sampled --seed 1 --seconds 25 --trace 0
//
// All workloads, traced and untraced, each in a process of its own:
//
//	go run ./bench -seed 1 -out r.json -trace-out t.json
//
// Whether two such sets of runs agree within the benchmark's bounds:
//
//	go run ./bench -agree a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // detailed report, JSON
	traceOut string // span dump, JSON
}

// environment is recorded with every report: timings only compare
// between runs that agree on it.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run of one workload found. The result line
// the driver reads is its Correct, Attempted, Failed and Metrics.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Env       environment            `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Samples   int                    `json:"samples"` // timed operations behind the metrics
	Digest    string                 `json:"output_digest"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`

	values map[string]float64
}

func newReport(w workload, opt options) *report {
	return &report{
		Workload: w.name, Seed: opt.seed, Trace: opt.trace, Correct: true,
		Env:    environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()},
		values: make(map[string]float64),
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) setAll(m map[string]float64) {
	for k, v := range m {
		r.values[k] = v
	}
}

// fail records a wrong output; the run then reports correct = false.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// countOps adds operations to the attempted and failed totals.
func (r *report) countOps(ok int, failures []error) {
	r.Attempted += ok + len(failures)
	r.Failed += len(failures)
	for _, err := range failures {
		r.fail("%v", err)
	}
}

// checkDigests requires every pass of a run to have produced the same
// output, and records it.
func (r *report) checkDigests(digests []uint64) {
	for _, d := range digests {
		if d != digests[0] {
			r.Failed++
			r.fail("output digest %016x differs from the first pass's %016x", d, digests[0])
		}
	}
	if len(digests) > 0 {
		r.Digest = fmt.Sprintf("%016x", digests[0])
	}
}

// finish builds the printed metrics from the table the trace mode
// selects: every name of the table, nothing else.
func (r *report) finish() error {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
		delete(r.values, d.name)
	}
	for name := range r.values {
		return fmt.Errorf("metric %q is measured but not in the benchmark's tables", name)
	}
	if r.Attempted < 1 {
		return errors.New("nothing was attempted")
	}
	return nil
}

// resultLine is what the driver reads from the last line of output.
func (r *report) resultLine() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// runWorkload measures one workload in this process.
func runWorkload(ctx context.Context, w workload, opt options) (*report, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	run := runBatch
	if w.serve {
		run = runServe
	}
	rep, err := run(ctx, w, opt)
	if err != nil {
		return nil, err
	}
	return rep, rep.finish()
}

// cpuSeconds is the processor time, user and system, this process has
// used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMiB is the high-water mark of this process's resident memory:
// VmHWM of /proc/self/status, which Linux counts in KiB. (getrusage's
// ru_maxrss is not used: it also remembers the process that exec'd
// this one, which under go run is the go command.) 0 when unreadable.
func peakRSSMiB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_, rest, _ := strings.Cut(string(status), "VmHWM:")
	var kib float64
	_, _ = fmt.Sscan(rest, &kib) // kib stays 0 when the line is missing
	return kib / 1024
}

// resetPeakRSS lowers the high-water mark to the current resident size,
// after handing freed memory back to the system, so that what
// peakRSSMiB reads next is the peak of the work in between. Where the
// kernel refuses, the mark stays what it was: the peak of the process so
// far.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printReport lists a report's metrics by name for a reader; the
// machine-readable line follows separately.
func printReport(r *report) {
	fmt.Printf("%s  seed=%d trace=%t  nproc=%d GOMAXPROCS=%d %s  attempted=%d failed=%d samples=%d digest=%s\n",
		r.Workload, r.Seed, r.Trace, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Attempted, r.Failed, r.Samples, r.Digest)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-32s %16.6g %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

func main() {
	var opt options
	var trace int
	var agree bool
	flag.StringVar(&opt.workload, "workload", "", "workload to run in this process; empty runs all of them, each in a child process")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of the generated inputs (book and request schedule)")
	flag.Float64Var(&opt.seconds, "seconds", 25, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&opt.out, "out", "", "write the detailed report(s) to this file as JSON")
	flag.StringVar(&opt.traceOut, "trace-out", "", "write the spans of the traced run(s) to this file as JSON")
	flag.BoolVar(&agree, "agree", false, "compare two -out files of all-workloads runs: bench -agree A.json B.json")
	flag.Parse()
	opt.trace = trace != 0

	// Four processors at most, set explicitly and recorded, so that a
	// larger host does not silently change the workloads' parallelism.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if err := dispatch(opt, agree, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("outputs are wrong; see the failures above")

func dispatch(opt options, agree bool, args []string) error {
	switch {
	case agree:
		if len(args) != 2 {
			return errors.New("-agree takes two report files")
		}
		return agreeFiles(args[0], args[1])
	case len(args) > 0:
		return fmt.Errorf("unexpected arguments %q", args)
	case opt.workload == "":
		return runAll(opt)
	}
	w, err := findWorkload(opt.workload)
	if err != nil {
		return err
	}
	rep, err := runWorkload(context.Background(), w, opt)
	if err != nil {
		return err
	}
	if opt.out != "" {
		if err := writeJSON(opt.out, rep); err != nil {
			return err
		}
	}
	printReport(rep)
	line, err := rep.resultLine()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		return errIncorrect
	}
	return nil
}
