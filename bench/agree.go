package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// specFile is the benchmark's contract, read from the working directory
// (the repository root).
const specFile = "BENCHMARK.json"

// spec is the part of BENCHMARK.json the benchmark itself reads.
type spec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []specMetric                 `json:"end_to_end"`
	PerLayer  []specMetric                 `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	var s spec
	return &s, readJSON(path, &s)
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runSet is the -out file of an all-workloads run: per workload one
// untraced and one traced report.
type runSet struct {
	Seed    uint64    `json:"seed"`
	Reports []*report `json:"reports"`
}

// runAll measures every workload twice, untraced then traced, each in a
// child process of its own: peak_rss_mib is then the high-water mark of
// a process that ran only that workload, and one workload's heap never
// disturbs the next.
func runAll(opt options) error {
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	set := runSet{Seed: opt.seed}
	var spans []json.RawMessage
	incorrect := false
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			out := filepath.Join(scratchRoot, fmt.Sprintf("report-%s-%d.json", w.name, trace))
			traceOut := filepath.Join(scratchRoot, "spans-"+w.name+".json")
			cmd := exec.Command(exe,
				"--workload", w.name, "--seed", strconv.FormatUint(opt.seed, 10),
				"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
				"-out", out, "-trace-out", traceOut)
			cmd.Stderr = os.Stderr
			// The child's listing is dropped; the table below is printed
			// from its report, with the bounds beside the values.
			runErr := cmd.Run()
			var rep report
			if err := readJSON(out, &rep); err != nil {
				return errors.Join(runErr, err)
			}
			os.Remove(out)
			incorrect = incorrect || !rep.Correct
			set.Reports = append(set.Reports, &rep)
			printBounded(&rep, sp)
			if trace == 1 {
				var s []json.RawMessage
				if err := readJSON(traceOut, &s); err != nil {
					return err
				}
				os.Remove(traceOut)
				spans = append(spans, s...)
			}
		}
	}
	if opt.out != "" {
		if err := writeJSON(opt.out, set); err != nil {
			return err
		}
	}
	if opt.traceOut != "" {
		if err := writeJSON(opt.traceOut, spans); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// printBounded is printReport with each end-to-end metric's regression
// bound beside it.
func printBounded(r *report, sp *spec) {
	printReport(r)
	if r.Trace {
		return
	}
	for _, m := range sp.EndToEnd {
		fmt.Printf("  bound %-26s %g (%s is better)\n", m.Name, m.Bound, m.Better)
	}
}

// agreeFiles compares two all-workloads runs of the same code and seed:
// per workload and end-to-end metric both values, their difference
// relative to their mean, and the bound. A difference above the bound
// means the benchmark cannot resolve a change of that size on this
// host: the pair is marked unresolved and the comparison fails, as it
// does when the outputs' digests differ.
func agreeFiles(pathA, pathB string) error {
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	var a, b runSet
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	if len(a.Reports) != len(b.Reports) {
		return fmt.Errorf("%s holds %d reports, %s holds %d", pathA, len(a.Reports), pathB, len(b.Reports))
	}
	breaches := 0
	fmt.Printf("%-16s %-18s %14s %14s %8s %6s\n", "workload", "metric", "a", "b", "diff", "bound")
	for i, ra := range a.Reports {
		rb := b.Reports[i]
		if ra.Workload != rb.Workload || ra.Trace != rb.Trace {
			return fmt.Errorf("report %d is %s/trace=%t in %s but %s/trace=%t in %s", i, ra.Workload, ra.Trace, pathA, rb.Workload, rb.Trace, pathB)
		}
		if ra.Digest != rb.Digest {
			breaches++
			fmt.Printf("%-16s output_digest %s != %s\n", ra.Workload, ra.Digest, rb.Digest)
		}
		if ra.Trace {
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			diff := math.Abs(va-vb) / ((va + vb) / 2)
			mark := ""
			if !(diff <= m.Bound) {
				breaches++
				mark = "  unresolved"
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %7.1f%% %5.0f%%%s\n", ra.Workload, m.Name, va, vb, 100*diff, 100*m.Bound, mark)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d differences above their bound", breaches)
	}
	return nil
}
