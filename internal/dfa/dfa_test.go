package dfa

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/mathx"
	"repro/internal/rng"
	"repro/internal/ylt"
)

func catTable(n int, seed uint64) *ylt.Table {
	t := ylt.New("cat", n)
	st := rng.New(seed)
	for i := range t.Agg {
		// Heavy-tailed cat losses: many small years, some huge.
		if st.Float64() < 0.3 {
			t.Agg[i] = st.Pareto(1e6, 1.6)
		}
		t.OccMax[i] = t.Agg[i] * 0.7
	}
	return t
}

func TestRunShapes(t *testing.T) {
	cat := catTable(5000, 1)
	ig := &Integrator{Sources: StandardSources(cat.Mean())}
	res, err := ig.Run(context.Background(), cat, Config{Seed: 3, Rho: 0.2, KeepPerSource: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSource) != 6 {
		t.Fatalf("sources = %d", len(res.PerSource))
	}
	if res.Enterprise.NumTrials() != 5000 {
		t.Fatal("enterprise trials wrong")
	}
	if !res.Enterprise.HasOccurrence() {
		t.Fatal("enterprise should inherit occurrence data from cat")
	}
	if res.TotalBytes <= cat.SizeBytes() {
		t.Fatal("TotalBytes should count all tables")
	}
	// Enterprise = cat + sum of sources, per trial.
	for trial := 0; trial < 5000; trial += 97 {
		sum := cat.Agg[trial]
		for _, s := range res.PerSource {
			sum += s.Agg[trial]
		}
		if math.Abs(sum-res.Enterprise.Agg[trial]) > 1e-9*(1+math.Abs(sum)) {
			t.Fatalf("trial %d: enterprise %v != sum %v", trial, res.Enterprise.Agg[trial], sum)
		}
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	cat := catTable(3000, 2)
	ig := &Integrator{Sources: StandardSources(cat.Mean())}
	a, err := ig.Run(context.Background(), cat, Config{Seed: 7, Rho: 0.15, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ig.Run(context.Background(), cat, Config{Seed: 7, Rho: 0.15, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Enterprise.Agg {
		if a.Enterprise.Agg[i] != b.Enterprise.Agg[i] {
			t.Fatalf("trial %d differs across worker counts", i)
		}
	}
}

func TestCorrelationInducedByCopula(t *testing.T) {
	// A continuous, finite-variance cat book so Pearson correlation is
	// an informative statistic (the production Pareto book with 70%
	// zero years dilutes Pearson even under strong rank dependence).
	cat := ylt.New("cat", 20000)
	st := rng.New(33)
	for i := range cat.Agg {
		cat.Agg[i] = st.LogNormal(13, 0.8)
		cat.OccMax[i] = cat.Agg[i] * 0.7
	}
	// A single investment source, strongly correlated to the cat book:
	// bad cat years should co-occur with investment losses.
	ig := &Integrator{Sources: []Source{Investment{Assets: 1e8, MeanReturn: 0.04, Volatility: 0.12}}}
	strong, err := ig.Run(context.Background(), cat, Config{Seed: 5, Rho: 0.7, KeepPerSource: true})
	if err != nil {
		t.Fatal(err)
	}
	rStrong := pearson(cat.Agg, strong.PerSource[0].Agg)

	weak, err := ig.Run(context.Background(), cat, Config{Seed: 5, Rho: 0.0, KeepPerSource: true})
	if err != nil {
		t.Fatal(err)
	}
	rWeak := pearson(cat.Agg, weak.PerSource[0].Agg)

	if rStrong < 0.2 {
		t.Fatalf("rho=0.7 should induce visible loss correlation, got %v", rStrong)
	}
	if math.Abs(rWeak) > 0.05 {
		t.Fatalf("rho=0 should leave sources uncorrelated, got %v", rWeak)
	}
	if rStrong <= rWeak {
		t.Fatal("correlation should increase with rho")
	}
}

func TestCorrelationRaisesTail(t *testing.T) {
	// With positive dependence the enterprise tail must be fatter than
	// under independence — the reason DFA bothers with copulas at all.
	cat := catTable(20000, 4)
	ig := &Integrator{Sources: StandardSources(cat.Mean())}
	dep, err := ig.Run(context.Background(), cat, Config{Seed: 9, Rho: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	ind, err := ig.Run(context.Background(), cat, Config{Seed: 9, Rho: 0})
	if err != nil {
		t.Fatal(err)
	}
	q := func(xs []float64) float64 {
		sorted := slices.Clone(xs)
		sort.Float64s(sorted)
		return mathx.QuantileSorted(len(sorted), 0.995, func(i int) float64 { return sorted[i] })
	}
	if q(dep.Enterprise.Agg) <= q(ind.Enterprise.Agg) {
		t.Fatalf("dependent 99.5%% quantile %v should exceed independent %v",
			q(dep.Enterprise.Agg), q(ind.Enterprise.Agg))
	}
}

func TestSourceMoments(t *testing.T) {
	st := rng.New(77)
	// Investment: mean loss ≈ -assets*meanReturn.
	inv := Investment{Assets: 1e6, MeanReturn: 0.05, Volatility: 0.1}
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += inv.Loss(st.Float64Open(), st)
	}
	if got := sum / n; math.Abs(got+50_000) > 1500 {
		t.Errorf("investment mean loss = %v, want ~-50000", got)
	}

	// Reserve: mean-one development => mean loss ≈ 0.
	rsv := Reserve{Reserves: 1e6, CoV: 0.15}
	sum = 0
	for i := 0; i < n; i++ {
		sum += rsv.Loss(st.Float64Open(), st)
	}
	if got := sum / n; math.Abs(got) > 2000 {
		t.Errorf("reserve mean loss = %v, want ~0", got)
	}

	// Counterparty: mean ≈ recoverables · PD · LGD.
	cp := Counterparty{Recoverables: 1e6, N: 50, PD: 0.02, LGD: 0.5, FactorRho: 0.2}
	sum = 0
	for i := 0; i < n; i++ {
		sum += cp.Loss(st.Float64Open(), st)
	}
	want := 1e6 * 0.02 * 0.5
	if got := sum / n; math.Abs(got-want)/want > 0.1 {
		t.Errorf("counterparty mean loss = %v, want ~%v", got, want)
	}

	// Operational: mean ≈ freq · sevMean.
	op := Operational{Freq: 2, SevMean: 1000, SevCoV: 1.0, StressBeta: 0.2}
	sum = 0
	for i := 0; i < n; i++ {
		sum += op.Loss(st.Float64Open(), st)
	}
	if got := sum / n; math.Abs(got-2000)/2000 > 0.08 {
		t.Errorf("operational mean loss = %v, want ~2000", got)
	}
}

func TestCounterpartyEdgeCases(t *testing.T) {
	st := rng.New(1)
	if (Counterparty{N: 0, PD: 0.1}).Loss(0.5, st) != 0 {
		t.Error("no counterparties means no loss")
	}
	if (Counterparty{N: 10, PD: 0}).Loss(0.5, st) != 0 {
		t.Error("zero PD means no loss")
	}
}

func TestOperationalZeroFrequency(t *testing.T) {
	st := rng.New(1)
	op := Operational{Freq: 0, SevMean: 1000, SevCoV: 1}
	if op.Loss(0.9, st) != 0 {
		t.Error("zero frequency must produce zero loss")
	}
}

func TestMarketCycleStates(t *testing.T) {
	mc := MarketCycle{Premium: 1000, SoftProb: 0.3, HardProb: 0.2, SoftMargin: 0.1, HardMargin: 0.05}
	st := rng.New(1)
	if got := mc.Loss(0.9, st); got != 100 {
		t.Errorf("soft market loss = %v, want 100", got)
	}
	if got := mc.Loss(0.5, st); got != 0 {
		t.Errorf("neutral market loss = %v, want 0", got)
	}
	if got := mc.Loss(0.05, st); got != -50 {
		t.Errorf("hard market loss = %v, want -50", got)
	}
}

func TestRunValidation(t *testing.T) {
	ig := &Integrator{Sources: StandardSources(1)}
	if _, err := ig.Run(context.Background(), nil, Config{}); err == nil {
		t.Error("nil cat should error")
	}
	if _, err := ig.Run(context.Background(), ylt.New("c", 0), Config{}); err == nil {
		t.Error("empty cat should error")
	}
	empty := &Integrator{}
	if _, err := empty.Run(context.Background(), catTable(10, 1), Config{}); err == nil {
		t.Error("no sources should error")
	}
	// Invalid rho.
	if _, err := ig.Run(context.Background(), catTable(10, 1), Config{Rho: 1.5}); err == nil {
		t.Error("invalid rho should error")
	}
}

func TestRunCancellation(t *testing.T) {
	cat := catTable(100000, 5)
	ig := &Integrator{Sources: StandardSources(cat.Mean())}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ig.Run(ctx, cat, Config{Rho: 0.1}); err == nil {
		t.Error("cancelled run should error")
	}
}

func TestStandardSourcesScale(t *testing.T) {
	srcs := StandardSources(0) // degenerate AAL
	if len(srcs) != 6 {
		t.Fatalf("sources = %d", len(srcs))
	}
	names := map[string]bool{}
	for _, s := range srcs {
		names[s.Name()] = true
	}
	for _, want := range []string{"investment", "interest-rate", "reserve", "market-cycle", "counterparty", "operational"} {
		if !names[want] {
			t.Errorf("missing source %q", want)
		}
	}
}

// The rank transform checked against definitions, not against another
// implementation: the ranks are a permutation of 0…n−1; they do not
// decrease as the loss grows and, among equal losses, grow with the
// trial index; and none of it depends on the worker count.
func TestRankTransformProperties(t *testing.T) {
	ctx := context.Background()
	for _, agg := range [][]float64{
		catTable(6151, 31).Agg,
		distinctTable(4099, 32).Agg,
		equalTable(513).Agg,
		{5},
		{2, -1, 2, math.Copysign(0, -1), 0, -1, 2},
	} {
		n := len(agg)
		rank1, err := rankTransform(ctx, agg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 7, n + 1} {
			rankOf, err := rankTransform(ctx, agg, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rankOf, rank1) {
				t.Fatalf("n=%d: workers=%d ranks differently from workers=1", n, workers)
			}
		}

		seen := make([]bool, n)
		for _, r := range rank1 {
			if int(r) >= n || seen[r] {
				t.Fatalf("n=%d: the ranks are not a permutation of 0…%d", n, n-1)
			}
			seen[r] = true
		}

		for a := 0; a < n; a++ {
			// Every pair for the small inputs, a stride of them for the
			// large ones.
			step := 1
			if n > 600 {
				step = 97
			}
			for b := a + 1; b < n; b += step {
				switch {
				case agg[a] < agg[b] && !(rank1[a] < rank1[b]), agg[a] > agg[b] && !(rank1[a] > rank1[b]):
					t.Fatalf("n=%d: the rank is not monotone in the loss at trials %d, %d", n, a, b)
				case agg[a] == agg[b] && !(rank1[a] < rank1[b]):
					t.Fatalf("n=%d: equal losses at trials %d < %d are not ranked in trial order", n, a, b)
				}
			}
		}
	}
}

// uniformProbe is a custom source that records the u it is handed.
type uniformProbe struct{ seen *[]float64 }

func (uniformProbe) Name() string { return "probe" }

func (p uniformProbe) Loss(u float64, _ *rng.Stream) float64 {
	*p.seen = append(*p.seen, u)
	return u
}

// A copula normal far in a tail used to reach the standard sources as
// Φ⁻¹(Φ(x)): above x ≈ 8.3 Φ rounds to 1 and Φ⁻¹(1) = +Inf, below
// ≈ −38.5 Φ underflows to 0 and Φ⁻¹(0) = −Inf, so Investment,
// InterestRate, Reserve and Operational handed ±Inf to the enterprise
// total (Investment{…}.Loss(Φ(9), aux) is +Inf). Read in normal space,
// every standard source is finite there; and the u a MarketCycle or a
// custom source reads stays inside the open interval (0, 1) its Source
// contract promises.
func TestCopulaTailsStayFinite(t *testing.T) {
	var seen []float64
	sources := append(StandardSources(1e6), uniformProbe{&seen})
	for _, x := range []float64{-39, -8.5, 8.5, 39} {
		for _, s := range sources {
			planned := planSource(s)
			for id := uint64(0); id < 20; id++ {
				if loss := planned.loss(x, rng.NewStream(5, id)); math.IsNaN(loss) || math.IsInf(loss, 0) {
					t.Fatalf("%s at copula normal %v: loss %v", s.Name(), x, loss)
				}
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("the custom source was never called")
	}
	for _, u := range seen {
		if !(u > 0 && u < 1) {
			t.Fatalf("a custom source was handed u = %v", u)
		}
	}
}

// Stage 3 conditions on how bad a catastrophe year was by its rank, not
// by its loss: a transform of the catastrophe column that keeps its
// strict order and its ties must leave every per-source column bit for
// bit where it was (ROADMAP item 11). Doubling keeps the column's shape;
// x³ + x bends it, so a copula reading the loss's standardized value
// instead of its rank is caught as well.
func TestRankInvarianceLeavesSourcesBitIdentical(t *testing.T) {
	ctx := context.Background()
	transforms := []struct {
		name string
		f    func(float64) float64
	}{
		{"x2", func(x float64) float64 { return 2 * x }},
		{"cubic", func(x float64) float64 { return x*x*x + x }},
	}
	for name, cat := range map[string]*ylt.Table{"tied": catTable(6151, 41), "distinct": distinctTable(4099, 42)} {
		// The same sources for both runs: StandardSources scales by the
		// column's mean, which the transform moves.
		ig := &Integrator{Sources: append(StandardSources(cat.Mean()), tiltSource{scale: 1e5})}
		cfg := Config{Seed: 17, Rho: 0.25, Workers: 3, KeepPerSource: true}
		base, err := ig.Run(ctx, cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range transforms {
			moved := ylt.New("cat", cat.NumTrials())
			copy(moved.OccMax, cat.OccMax)
			for i, x := range cat.Agg {
				moved.Agg[i] = tr.f(x)
			}
			sorted := slices.Clone(cat.Agg)
			sort.Float64s(sorted)
			for r := 1; r < len(sorted); r++ {
				a, b := sorted[r-1], sorted[r]
				if a < b && !(tr.f(a) < tr.f(b)) {
					t.Fatalf("%s/%s: the transform does not keep %v < %v", name, tr.name, a, b)
				}
			}
			got, err := ig.Run(ctx, moved, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range base.PerSource {
				if !sameBits(got.PerSource[i].Agg, base.PerSource[i].Agg) {
					t.Errorf("%s/%s: source %s moved with a rank-preserving transform of the catastrophe column", name, tr.name, base.PerSource[i].Name)
				}
			}
		}
	}
}

// Inputs Run used to integrate without a word: a catastrophe loss that
// is not a number (NaN makes < a non-order, so the old stable sort
// returned an arbitrary permutation and every figure was NaN) and an
// operational frequency no Poisson draw returns from. A trial count
// beyond 2³¹ needs no check: the rank pairs index trials with an int.
func TestRunRejectsHostileInputs(t *testing.T) {
	const n = 100
	lossAt := func(v float64, trials ...int) *ylt.Table {
		cat := catTable(n, 6)
		for _, trial := range trials {
			cat.Agg[trial] = v
		}
		return cat
	}
	// operationalAt is the standard set with the operational source's
	// frequency replaced.
	operationalAt := func(freq float64) []Source {
		sources := StandardSources(1e6)
		op := sources[5].(Operational)
		op.Freq = freq
		sources[5] = op
		return sources
	}
	for _, c := range []struct {
		name    string
		cat     *ylt.Table
		sources []Source // the standard set when nil
		want    string
	}{
		{"NaN loss", lossAt(math.NaN(), 93, 41, 77), nil, "dfa: catastrophe loss at trial 41 is not finite"},
		{"+Inf loss", lossAt(math.Inf(1), 99), nil, "dfa: catastrophe loss at trial 99 is not finite"},
		{"-Inf loss", lossAt(math.Inf(-1), 0), nil, "dfa: catastrophe loss at trial 0 is not finite"},
		{"NaN operational frequency", catTable(n, 6), operationalAt(math.NaN()), "dfa: source 5 (operational) has frequency NaN"},
		{"+Inf operational frequency", catTable(n, 6), operationalAt(math.Inf(1)), "dfa: source 5 (operational) has frequency +Inf"},
		{"operational frequency 1e12", catTable(n, 6), operationalAt(1e12), "dfa: source 5 (operational) has frequency 1e+12, above the largest Poisson rate"},
		{"operational frequency 1e18", catTable(n, 6), operationalAt(1e18), "dfa: source 5 (operational) has frequency 1e+18, above the largest Poisson rate"},
		{"operational frequency 1e300", catTable(n, 6), operationalAt(1e300), "dfa: source 5 (operational) has frequency 1e+300, above the largest Poisson rate"},
	} {
		sources := c.sources
		if sources == nil {
			sources = StandardSources(1e6)
		}
		for _, workers := range []int{1, 3, 8} {
			ig := &Integrator{Sources: sources}
			// A hostile input must be refused, not drawn from: a Poisson
			// count at a NaN or infinite rate never returned, and one at a
			// huge finite rate never builds its sampler.
			done := make(chan error, 1)
			go func() {
				_, err := ig.Run(context.Background(), c.cat, Config{Seed: 1, Rho: 0.2, Workers: workers})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s, workers=%d: error %v, want one containing %q", c.name, workers, err, c.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s, workers=%d: Run has not returned after 10 s", c.name, workers)
			}
		}
	}
}

// Per-source tables are built on request only; TotalBytes counts the
// tables that exist, the occurrence column in each table that holds it;
// Enterprise.OccMax is Cat.OccMax itself, the same backing array, either
// way.
func TestKeepPerSource(t *testing.T) {
	const n = 1000
	cat := catTable(n, 8)
	ig := &Integrator{Sources: StandardSources(cat.Mean())}
	lean, err := ig.Run(context.Background(), cat, Config{Seed: 3, Rho: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	full, err := ig.Run(context.Background(), cat, Config{Seed: 3, Rho: 0.2, KeepPerSource: true})
	if err != nil {
		t.Fatal(err)
	}
	if lean.PerSource != nil || len(full.PerSource) != 6 {
		t.Fatalf("PerSource: %d tables without KeepPerSource, %d with", len(lean.PerSource), len(full.PerSource))
	}
	if !sameBits(lean.Enterprise.Agg, full.Enterprise.Agg) {
		t.Fatal("KeepPerSource changed the enterprise table")
	}
	// cat + enterprise, two columns each under a 16-byte header and the
	// name; then six one-column tables whose names add up to 65 bytes.
	if want := int64(2*(16+16*n) + len("cat") + len("enterprise")); lean.TotalBytes != want {
		t.Fatalf("TotalBytes without per-source tables = %d, want %d", lean.TotalBytes, want)
	}
	if want := lean.TotalBytes + 6*(16+8*n) + 65; full.TotalBytes != want {
		t.Fatalf("TotalBytes with per-source tables = %d, want %d", full.TotalBytes, want)
	}
	for name, res := range map[string]*Result{"lean": lean, "full": full} {
		if occ := res.Enterprise.OccMax; len(occ) != n || &occ[0] != &cat.OccMax[0] {
			t.Fatalf("%s: Enterprise.OccMax is not Cat.OccMax's backing array", name)
		}
	}
	aggOnly := ylt.NewAggOnly("cat", n)
	copy(aggOnly.Agg, cat.Agg)
	res, err := ig.Run(context.Background(), aggOnly, Config{Seed: 3, Rho: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Enterprise.HasOccurrence() {
		t.Fatal("an aggregate-only catastrophe table gave an enterprise table with occurrence detail")
	}
}

// Run holds, beyond the tables it returns, only the rank transform's two
// 4-byte index slices: a million-trial run allocates the enterprise
// column (8 MB) and the indices (8 MB), and neither a sorted copy of the
// catastrophe column nor a copy of its occurrence column (8 MB each).
func TestRunAllocatesTheEnterpriseColumnAndTheRanks(t *testing.T) {
	const n = 1_000_000
	cat := distinctTable(n, 3)
	ig := &Integrator{Sources: StandardSources(cat.Mean())}
	cfg := Config{Seed: 7, Rho: 0.25, Workers: 2}
	if _, err := ig.Run(context.Background(), cat, cfg); err != nil { // warm up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ig.Run(context.Background(), cat, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const want = 16 << 20 // bytes: 8 MB of enterprise column, 8 MB of indices
	if got := after.TotalAlloc - before.TotalAlloc; got > want+want/8 {
		t.Fatalf("Run allocated %.1f MB over %d trials, want about %.1f MB", float64(got)/1e6, n, float64(want)/1e6)
	}
}
