// Real-time pricing: the paper's flagship stage-2 use case. A broker
// asks for a quote on one contract; the engine answers with a
// million-trial aggregate simulation in seconds ("A 1 million trial
// aggregate simulation on a typical contract only takes 25 seconds
// and can therefore support real-time pricing", §II — on 2012
// hardware; the parallel host engine here is far faster).
//
//	go run ./examples/realtime_pricing
package main

import (
	"context"
	"fmt"
	"log"

	"repro/risk"
)

func main() {
	cfg := risk.DefaultConfig()
	cfg.Events = 10_000
	cfg.Contracts = 4
	ctx := context.Background()

	study := risk.NewStudy(cfg)
	// Stage 1 runs once when the book is loaded...
	if err := study.RunModelling(ctx); err != nil {
		log.Fatalf("realtime_pricing: modelling: %v", err)
	}

	// ...then each incoming submission is priced interactively. Every
	// quote reads the same million trial years, whatever the contract:
	// the first quote generates them into the study's resident trial
	// table (as would any later quote asking for more trials than the
	// table holds), the others find them there and only simulate.
	for contract := 0; contract < 3; contract++ {
		quote, err := study.PriceContract(ctx, contract, 1_000_000)
		if err != nil {
			log.Fatalf("realtime_pricing: quote %d: %v", contract, err)
		}
		fmt.Printf("contract %d: %d trials in %v (%.0f trials/s)\n",
			quote.ContractID, quote.Trials, quote.Elapsed.Round(1e6),
			float64(quote.Trials)/quote.Elapsed.Seconds())
		fmt.Printf("  expected loss %12.0f\n", quote.AAL)
		fmt.Printf("  volatility    %12.0f\n", quote.StdDev)
		fmt.Printf("  99%% TVaR      %12.0f\n", quote.TVaR99)
		fmt.Printf("  250-yr PML    %12.0f\n", quote.PML250)
		fmt.Printf("  premium       %12.0f  (AAL + 0.35σ)\n\n", quote.Premium)
	}
}
