// Post-event response: when a real catastrophe strikes, the book must
// be re-estimated in seconds — the rapid post-event modelling workflow
// of the authors' companion work (paper reference [2]). The stage-1
// engine prepares the portfolio once, then prices incoming event
// bulletins interactively, with uncertainty bands, through the same
// footprint kernel that builds the event-loss tables.
//
//	go run ./examples/postevent_response
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/catalog"
	"repro/internal/catmodel"
	"repro/internal/synth"
)

func main() {
	ctx := context.Background()

	// Load the book: eight cedants' exposure databases.
	dbs, err := synth.Exposures(1, 8, 800)
	if err != nil {
		log.Fatalf("postevent_response: %v", err)
	}
	est, err := catmodel.New().PostEvent(dbs)
	if err != nil {
		log.Fatalf("postevent_response: %v", err)
	}
	fmt.Printf("book prepared: %d insured interests\n\n", est.Sites())

	// Three bulletins arrive as the event is tracked and upgraded.
	anchor := dbs[0].Locations[0]
	bulletins := []catalog.Event{
		{ID: 1, Peril: catalog.Hurricane, Lat: anchor.Lat - 1.5, Lon: anchor.Lon + 1.0, Magnitude: 42, RadiusKm: 150},
		{ID: 2, Peril: catalog.Hurricane, Lat: anchor.Lat - 0.5, Lon: anchor.Lon + 0.4, Magnitude: 48, RadiusKm: 180},
		{ID: 3, Peril: catalog.Hurricane, Lat: anchor.Lat, Lon: anchor.Lon, Magnitude: 54, RadiusKm: 200},
	}
	fmt.Printf("%-10s %12s %16s %16s %26s %12s\n",
		"bulletin", "sites hit", "exposed value", "est. gross", "90% band", "latency")
	for _, ev := range bulletins {
		res, err := est.Estimate(ctx, ev)
		if err != nil {
			log.Fatalf("postevent_response: bulletin %d: %v", ev.ID, err)
		}
		fmt.Printf("#%-9d %12d %16.0f %16.0f [%11.0f, %11.0f] %12v\n",
			ev.ID, res.SitesTouched, res.ExposedValue, res.GrossMean,
			res.Low, res.High, res.Elapsed.Round(1000))
	}
}
