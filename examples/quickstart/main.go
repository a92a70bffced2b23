// Quickstart: run a complete three-stage risk analytics study through
// the public API and print the catastrophe and enterprise reports.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/risk"
)

func main() {
	cfg := risk.DefaultConfig()
	cfg.Events = 5_000
	cfg.Contracts = 8
	cfg.Trials = 50_000
	cfg.Sampling = true

	study := risk.NewStudy(cfg)
	report, err := study.Run(context.Background())
	if err != nil {
		log.Fatalf("quickstart: %v", err)
	}

	fmt.Println("pipeline stages:")
	for _, s := range report.Stages {
		fmt.Printf("  %-16s %12v %12d bytes out\n", s.Name, s.Duration.Round(1e6), s.OutputBytes)
	}

	fmt.Printf("\ncatastrophe book: AAL %.0f, 99%% TVaR %.0f\n",
		report.Catastrophe.AAL, report.Catastrophe.TVaR99)
	for _, rp := range report.Catastrophe.ReturnRows {
		if rp.ReturnPeriod == 250 {
			fmt.Printf("250-year PML (OEP): %.0f   250-year AEP: %.0f\n", rp.OEP, rp.AEP)
		}
	}
	fmt.Printf("\nenterprise after DFA: AAL %.0f, 99.5%% TVaR %.0f\n",
		report.Enterprise.AAL, report.Enterprise.TVaR995)

	// The per-trial losses are available for custom analytics.
	losses, err := study.CatastropheLosses()
	if err != nil {
		log.Fatal(err)
	}
	worst := 0.0
	for _, l := range losses {
		if l > worst {
			worst = l
		}
	}
	fmt.Printf("worst simulated year of %d: %.0f\n", len(losses), worst)
}
