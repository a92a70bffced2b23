// Package catmodel is the stage-1 engine: it drives event–exposure
// pairs through the hazard, vulnerability and financial modules and
// aggregates the results into Event-Loss Tables.
//
// The paper's stage-1 data challenge (§II) is that risk modelling is
// "highly compute and data intensive. Typically, data needs to be
// organised in a small number of very large tables and streamed by
// independent processes, further to which the results need to be
// aggregated." The engine therefore streams the event table once,
// partitioned across independent workers, each accumulating a partial
// ELT that is merged at the end — no random access, no shared state on
// the hot path.
//
// Work is proportional to the pairs an event is felt at, not to all
// (event, interest) pairs — on the default book 2–3 % of them. The
// exposure database is flattened once per run (flatten) into a hazard
// site table, one entry per location, and per-interest columns. For
// each event hazard.Model.Footprint rejects the sites beyond the felt
// radius with one dot product each and returns the few remaining with
// their intensities, evaluated once per location; the kernel then
// prices the interests at those locations in ascending interest order.
// That order is the one the sums were always accumulated in, and the
// survivors go through the same distance and damage arithmetic, so the
// ELTs are bit-identical to those of the loop that visited every pair;
// that loop is kept as the oracle in oracle_test.go, and DESIGN.md
// ("Stage-1 kernel") has the argument.
package catmodel

import (
	"context"
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/elt"
	"repro/internal/exposure"
	"repro/internal/hazard"
	"repro/internal/stream"
	"repro/internal/vulnerability"
)

// Engine wires the three catastrophe-model modules together: its
// hazard model, the default vulnerability matrix and standard policy
// terms by occupancy.
type Engine struct {
	Hazard hazard.Model
	// Workers is the parallelism for the event stream; <= 0 means
	// GOMAXPROCS. The paper notes stage 1 typically needs fewer than
	// ten processors — the default matches a small multicore host.
	Workers int
}

// vuln is the damage model every engine prices with, built once.
var vuln = vulnerability.Default()

// correlatedShare is the fraction of damage variance attributed to the
// systemic (correlated) component; the rest is per-site independent.
const correlatedShare = 0.3

// New returns an engine with the default hazard model.
func New() *Engine {
	return &Engine{}
}

// Run computes the ELT for one contract: the given exposure database
// analysed against the full event catalogue. It is deterministic (the
// moment pipeline is closed-form; no sampling happens in stage 1).
func (e *Engine) Run(ctx context.Context, cat *catalog.Catalog, db *exposure.Database, contractID uint32) (*elt.Table, error) {
	if cat.Len() == 0 {
		return elt.New(contractID, nil), nil
	}
	book, err := flatten(db)
	if err != nil {
		return nil, err
	}
	independent, sqrtCorr := 1-correlatedShare, math.Sqrt(correlatedShare)

	// Each worker keeps its partial ELT and the two per-event scratch
	// lists, reused from event to event.
	type partial struct {
		recs  []elt.Record
		sites []hazard.Felt
		pairs []feltInterest
	}
	result, err := stream.MapReduceLocal(ctx, cat.Len(), e.Workers,
		func() *partial { return &partial{} },
		func(ctx context.Context, r stream.Range, acc *partial) error {
			for evIdx := r.Lo; evIdx < r.Hi; evIdx++ {
				if evIdx%256 == 0 {
					select {
					case <-ctx.Done():
						return ctx.Err()
					default:
					}
				}
				ev := cat.Events[evIdx]
				acc.sites = e.Hazard.Footprint(ev, book.sites, acc.sites)
				acc.pairs = book.gather(acc.sites, acc.pairs)
				var meanSum, varISum, sigmaCSum, exposed float64
				for _, p := range acc.pairs {
					i := p.interest
					mdr, sd := vuln.DamageMoments(ev.Peril, book.construction[i], p.intensity)
					if mdr <= 0 {
						continue
					}
					guMean := mdr * book.value[i]
					guSD := sd * book.value[i]
					gMean, gSD := book.terms[i].ApplyMoments(guMean, guSD)
					if gMean <= 0 && gSD <= 0 {
						continue
					}
					meanSum += gMean
					varISum += float64(independent * gSD * gSD)
					sigmaCSum += float64(sqrtCorr * gSD)
					exposed += book.value[i]
				}
				if meanSum <= 0 {
					continue
				}
				acc.recs = append(acc.recs, elt.Record{
					EventID:      ev.ID,
					MeanLoss:     meanSum,
					SigmaI:       math.Sqrt(varISum),
					SigmaC:       sigmaCSum,
					ExposedValue: exposed,
				})
			}
			return nil
		},
		func(into, from *partial) { into.recs = append(into.recs, from.recs...) },
	)
	if err != nil {
		return nil, err
	}
	return elt.New(contractID, result.recs), nil
}

// RunPortfolio computes ELTs for many contracts, one exposure database
// each, reusing the engine across contracts. Contracts are processed
// sequentially while events parallelize inside each contract: the ELT
// of a contract is the unit of output in stage 1 (one "very large
// table" per run), and this preserves deterministic output order.
func (e *Engine) RunPortfolio(ctx context.Context, cat *catalog.Catalog, dbs []*exposure.Database) ([]*elt.Table, error) {
	out := make([]*elt.Table, len(dbs))
	for i, db := range dbs {
		t, err := e.Run(ctx, cat, db, uint32(i+1))
		if err != nil {
			return nil, fmt.Errorf("catmodel: contract %d: %w", i+1, err)
		}
		out[i] = t
	}
	return out, nil
}
