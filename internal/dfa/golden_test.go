package dfa

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rng"
	"repro/internal/ylt"
)

// goldenDFADigests pin every enterprise and per-source number across
// commits, not only across implementations inside one binary. They were
// first computed at the commit before Run was rebuilt around the pair
// argsort (a90cca3) and held through 8cd6fc2. All seven were re-pinned
// when stage 3 moved into normal space: the standard sources read the
// copula normal itself instead of Φ⁻¹(Φ(x)), the copula and the
// operational severities draw ziggurat normals instead of polar ones,
// and Binomial inverts one uniform for n ≤ 64. The values before that,
// in the order below: 0xcd7e75f68131e2ab, 0xaf80ff68ff4745f7,
// 0x40732a7016308714, 0x6c332b874013dccf, 0x614b6dda1d15e14c,
// 0xd3ad7d42c6edf771, 0xaf9a58757751d8ca.
var goldenDFADigests = map[string]uint64{
	"tied/rho=0.2":        0xb06e94c21a244830,
	"tied/rho=0":          0xfa4a1898fc47f592,
	"distinct/rho=0.2":    0x5e6b85d340c2f88f,
	"equal/rho=0.2":       0xb316f8888244b5b1,
	"aggonly/rho=0":       0xec9220166d7ba2b4,
	"tied/corr":           0xc2d9a43a0521d7b6,
	"tied/custom-sources": 0x3577c8ca1c09b30a,
}

// distinctTable is a cat book without a single tie: a continuous
// lognormal year loss.
func distinctTable(n int, seed uint64) *ylt.Table {
	t := ylt.New("cat", n)
	st := rng.New(seed)
	for i := range t.Agg {
		t.Agg[i] = st.LogNormal(13, 0.8)
		t.OccMax[i] = t.Agg[i] * 0.7
	}
	return t
}

// equalTable is the other extreme: every year the same loss, so the
// whole rank order is the tie-break.
func equalTable(n int) *ylt.Table {
	t := ylt.New("cat", n)
	for i := range t.Agg {
		t.Agg[i] = 1e6
		t.OccMax[i] = 4e5
	}
	return t
}

// decayCorr is a correlation matrix that is not an equicorrelation:
// 0.6^|i-j|, positive definite for any size.
func decayCorr(k int) *mathx.Matrix {
	m := mathx.NewMatrix(k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			m.Set(i, j, math.Pow(0.6, math.Abs(float64(i-j))))
		}
	}
	return m
}

// tiltSource is a source the integrator has no plan for: it reads both
// the copula uniform and the auxiliary stream.
type tiltSource struct{ scale float64 }

func (s tiltSource) Name() string { return "tilt" }

func (s tiltSource) Loss(u float64, aux *rng.Stream) float64 {
	return s.scale * (u - 0.5) * aux.Exponential(2)
}

type goldenCase struct {
	name    string
	cat     *ylt.Table
	sources []Source
	cfg     Config
}

func goldenCases() []goldenCase {
	tied := catTable(5003, 11)
	aggOnly := catTable(4099, 12)
	aggOnly.OccMax = nil
	std := func(t *ylt.Table) []Source { return StandardSources(t.Mean()) }
	distinct := distinctTable(4999, 13)
	equal := equalTable(1025)
	custom := append(std(tied), tiltSource{scale: 3e5}, Operational{Freq: 40, SevMean: 2e4, SevCoV: 0.7, StressBeta: 0.1},
		Counterparty{Recoverables: 5e6, N: 200, PD: 0.03, LGD: 0.4, FactorRho: 0.99})
	return []goldenCase{
		{"tied/rho=0.2", tied, std(tied), Config{Seed: 3, Rho: 0.2, Workers: 3, KeepPerSource: true}},
		{"tied/rho=0", tied, std(tied), Config{Seed: 3, Rho: 0, Workers: 3, KeepPerSource: true}},
		{"distinct/rho=0.2", distinct, std(distinct), Config{Seed: 5, Rho: 0.2, Workers: 3, KeepPerSource: true}},
		{"equal/rho=0.2", equal, std(equal), Config{Seed: 7, Rho: 0.2, Workers: 3, KeepPerSource: true}},
		{"aggonly/rho=0", aggOnly, std(aggOnly), Config{Seed: 9, Rho: 0, Workers: 3, KeepPerSource: true}},
		{"tied/corr", tied, std(tied), Config{Seed: 11, Corr: decayCorr(7), Workers: 3, KeepPerSource: true}},
		{"tied/custom-sources", tied, custom, Config{Seed: 13, Rho: 0.15, Workers: 3, KeepPerSource: true}},
	}
}

// digestResult is FNV-1a over the float bits of the enterprise columns
// and of every per-source column, in source order.
func digestResult(res *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(xs []float64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(xs)))
		h.Write(buf[:])
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	put(res.Enterprise.Agg)
	put(res.Enterprise.OccMax)
	for _, t := range res.PerSource {
		put(t.Agg)
	}
	return h.Sum64()
}

func TestGoldenDFADigest(t *testing.T) {
	for _, c := range goldenCases() {
		ig := &Integrator{Sources: c.sources}
		res, err := ig.Run(context.Background(), c.cat, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(res.PerSource) != len(c.sources) {
			t.Fatalf("%s: %d per-source tables, want %d", c.name, len(res.PerSource), len(c.sources))
		}
		got := digestResult(res)
		if want := goldenDFADigests[c.name]; got != want {
			t.Errorf("%s: stage-3 numbers changed: digest %#x, want %#x", c.name, got, want)
		}
	}
}
