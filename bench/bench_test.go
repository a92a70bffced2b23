package main

import (
	"context"
	"regexp"
	"testing"
)

// toy shrinks a workload to a size at which all four run in a few
// seconds: the code paths of the full benchmark, none of its timings.
func toy(w workload) workload {
	w.shape.events, w.shape.contracts, w.shape.locations, w.shape.trials = 300, 4, 20, 2_000
	w.shape.oracleTrials, w.shape.setupReps, w.shape.minOps = 500, 1, 3
	if w.serve {
		w.shape.quoteTrials = [2]int{200, 600}
		w.shape.minOps, w.shape.minOpen, w.shape.openRate = 40, 10, 500
	}
	return w
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every workload, traced and untraced, at toy size: outputs correct and
// identical between the two runs, and exactly the metrics BENCHMARK.json
// names, with its units. No timing is asserted.
func TestWorkloadsEmitTheContract(t *testing.T) {
	sp, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%s lists %d workloads, the benchmark has %d", specFile, len(sp.Workloads), len(workloads))
	}
	scratchRoot = t.TempDir()
	for i, full := range workloads {
		if sp.Workloads[i].Name != full.name {
			t.Errorf("workload %d is %q in %s, %q in the benchmark", i, sp.Workloads[i].Name, specFile, full.name)
		}
		var digests [2]string
		for trace, want := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
			rep, err := runWorkload(context.Background(), toy(full), options{seed: 7, trace: trace == 1})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", full.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%t attempted=%d failed=%d: %v", full.name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
			}
			if _, err := rep.resultLine(); err != nil {
				t.Errorf("%s trace=%d: result line: %v", full.name, trace, err)
			}
			digests[trace] = rep.Digest
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics emitted, %s names %d", full.name, trace, len(rep.Metrics), specFile, len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !metricName.MatchString(m.Name):
					t.Errorf("metric name %q is not valid", m.Name)
				case !ok:
					t.Errorf("%s trace=%d: %s is in %s but was not emitted", full.name, trace, m.Name, specFile)
				case got.Unit != m.Unit:
					t.Errorf("%s: unit %q emitted, %q in %s", m.Name, got.Unit, m.Unit, specFile)
				case trace == 0 && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", full.name, m.Name, got.Value)
				}
			}
		}
		if digests[0] == "" || digests[0] != digests[1] {
			t.Errorf("%s: output digest %q untraced, %q traced", full.name, digests[0], digests[1])
		}
	}
}

func TestQuantiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := median(v[:4]); got != 3 {
		t.Errorf("median of four = %g, want 3 (mean of 2 and 4)", got)
	}
	if got := percentile(v, 0.95); got != 5 {
		t.Errorf("p95 of five = %g, want the largest", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := percentile(hundred, 0.95); got != 95 {
		t.Errorf("p95 of 1..100 = %g, want 95", got)
	}
}
