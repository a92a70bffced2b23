// Command catmodel runs stage 1 only: it generates a stochastic event
// catalogue and synthetic exposure databases, streams event–exposure
// pairs through the hazard/vulnerability/financial modules, and writes
// one Event-Loss Table per contract to disk.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/catmodel"
	"repro/internal/cliflags"
	"repro/internal/exposure"
	"repro/internal/yelt"
)

func main() {
	ccfg := catalog.DefaultConfig()
	ecfg := exposure.DefaultConfig()
	ecfg.NumLocations = 400
	eng := catmodel.New()
	seed, contracts := uint64(1), 8
	cliflags.Events(&ccfg.NumEvents)
	cliflags.Contracts(&contracts)
	cliflags.Locations(&ecfg.NumLocations)
	cliflags.Seed(&seed)
	cliflags.Workers(&eng.Workers)
	out := flag.String("out", "", "output directory for ELT files (empty = report only)")
	flag.Parse()
	ctx := context.Background()

	cat, err := catalog.Generate(ccfg, seed)
	if err != nil {
		fail(err)
	}
	fmt.Printf("catalogue: %d events, %.1f expected occurrences/year\n", cat.Len(), cat.TotalRate())

	start := time.Now()
	var totalRecords int
	var totalBytes int64
	for c := 0; c < contracts; c++ {
		db, err := exposure.Generate(ecfg, seed+uint64(1000+c))
		if err != nil {
			fail(err)
		}
		tbl, err := eng.Run(ctx, cat, db, uint32(c+1))
		if err != nil {
			fail(err)
		}
		totalRecords += tbl.Len()
		totalBytes += tbl.SizeBytes()
		fmt.Printf("contract %2d: TIV %14.0f  ELT %6d events  E[L] %14.0f\n",
			c+1, db.TotalValue(), tbl.Len(), tbl.ExpectedLoss())
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fail(err)
			}
			path := filepath.Join(*out, fmt.Sprintf("contract-%03d.elt", c+1))
			f, err := os.Create(path)
			if err != nil {
				fail(err)
			}
			if _, err := tbl.WriteTo(f); err != nil {
				f.Close()
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
		}
	}
	fmt.Printf("stage 1 complete: %d ELT records (%s) in %v\n",
		totalRecords, yelt.HumanBytes(float64(totalBytes)), time.Since(start).Round(time.Millisecond))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "catmodel: %v\n", err)
	os.Exit(1)
}
