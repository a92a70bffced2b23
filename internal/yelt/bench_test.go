package yelt

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/diskstore"
)

func benchCatalog(b *testing.B, n int) *catalog.Catalog {
	b.Helper()
	cfg := catalog.DefaultConfig()
	cfg.NumEvents = n
	cat, err := catalog.Generate(cfg, 99)
	if err != nil {
		b.Fatal(err)
	}
	return cat
}

func BenchmarkGenerate(b *testing.B) {
	cat := benchCatalog(b, 10_000)
	for _, trials := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("trials=%d", trials), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t, err := Generate(context.Background(), cat, Config{NumTrials: trials}, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(t.SizeBytes())
			}
		})
	}
}

// BenchmarkSpillReplicated is the spill of the repo benchmark's
// spill-expected workload at a fifth of its trials: a 3 000-event,
// λ = 10 catalogue generated straight into shards of at most 32 768
// trials (aggregate.DefaultSpillParts, which this package cannot
// import), on 4 nodes at 2 replicas, with GOMAXPROCS workers. Every
// iteration re-spills into the same store, as a re-run into one -dir
// does.
func BenchmarkSpillReplicated(b *testing.B) {
	const trials, splitTrials = 200_000, 32_768
	g, err := NewGenerator(benchCatalog(b, 3_000), Config{NumTrials: trials}, 1)
	if err != nil {
		b.Fatal(err)
	}
	store, err := diskstore.Create(b.TempDir(), 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := Spill(context.Background(), g, store, "yelt", (trials+splitTrials-1)/splitTrials, 2, 0)
		if err != nil {
			b.Fatal(err)
		}
		size, err := ds.SizeBytes()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(size)
	}
}

func BenchmarkCodecWrite(b *testing.B) {
	cat := benchCatalog(b, 5_000)
	t, err := Generate(context.Background(), cat, Config{NumTrials: 50_000}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(t.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		buf.Grow(int(t.SizeBytes()))
		if _, err := t.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecRead(b *testing.B) {
	cat := benchCatalog(b, 5_000)
	t, err := Generate(context.Background(), cat, Config{NumTrials: 50_000}, 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := t.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
