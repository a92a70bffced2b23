// Package cliflags declares, once, each command-line flag that more
// than one command reads. A binder registers its flag on the default
// flag set, bound to the config field it sets, and takes the field's
// value at bind time as the flag's default: a command's defaults are
// those of the config it starts from. Each command binds only the
// flags it uses; a flag one command reads stays in that command.
package cliflags

import (
	"flag"
	"strings"
)

// Seed binds -seed, the master seed.
func Seed(p *uint64) { flag.Uint64Var(p, "seed", *p, "master seed") }

// Events binds -events, the stochastic catalogue size.
func Events(p *int) { flag.IntVar(p, "events", *p, "stochastic catalogue size") }

// Contracts binds -contracts, the number of contracts in the book.
func Contracts(p *int) { flag.IntVar(p, "contracts", *p, "number of contracts") }

// Locations binds -locations, the locations per contract.
func Locations(p *int) { flag.IntVar(p, "locations", *p, "locations per contract") }

// Trials binds -trials, the simulated trial years.
func Trials(p *int) { flag.IntVar(p, "trials", *p, "simulated trial years") }

// Workers binds -workers, the parallelism bound.
func Workers(p *int) { flag.IntVar(p, "workers", *p, "parallelism bound (0 = all cores)") }

// Rho binds -rho, the DFA copula equicorrelation.
func Rho(p *float64) { flag.Float64Var(p, "rho", *p, "DFA copula equicorrelation") }

// CubeDims binds -cube-dims, the warehouse cube's dimensions.
func CubeDims(p *[]string) {
	flag.Func("cube-dims", "comma-separated `list` of warehouse cube dimensions, e.g. region,lob (empty = no cube)",
		func(s string) error { *p = splitDims(s); return nil })
}

// splitDims parses a comma-separated dimension list, dropping empty
// segments, so "region," means {region}.
func splitDims(s string) []string {
	var dims []string
	for _, d := range strings.Split(s, ",") {
		if d = strings.TrimSpace(d); d != "" {
			dims = append(dims, d)
		}
	}
	return dims
}
