// Package cliflags declares, once, each command-line flag that more
// than one command reads. A binder registers its flag on the command's
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
func Seed(fs *flag.FlagSet, p *uint64) { fs.Uint64Var(p, "seed", *p, "master seed") }

// Events binds -events, the stochastic catalogue size.
func Events(fs *flag.FlagSet, p *int) { fs.IntVar(p, "events", *p, "stochastic catalogue size") }

// Contracts binds -contracts, the number of contracts in the book.
func Contracts(fs *flag.FlagSet, p *int) { fs.IntVar(p, "contracts", *p, "number of contracts") }

// Locations binds -locations, the locations per contract.
func Locations(fs *flag.FlagSet, p *int) { fs.IntVar(p, "locations", *p, "locations per contract") }

// Trials binds -trials, the simulated trial years.
func Trials(fs *flag.FlagSet, p *int) { fs.IntVar(p, "trials", *p, "simulated trial years") }

// Workers binds -workers, the parallelism bound.
func Workers(fs *flag.FlagSet, p *int) {
	fs.IntVar(p, "workers", *p, "parallelism bound (0 = all cores)")
}

// Rho binds -rho, the DFA copula equicorrelation.
func Rho(fs *flag.FlagSet, p *float64) { fs.Float64Var(p, "rho", *p, "DFA copula equicorrelation") }

// CubeDims binds -cube-dims, the warehouse cube's dimensions.
func CubeDims(fs *flag.FlagSet, p *[]string) {
	fs.Func("cube-dims", "comma-separated `list` of warehouse cube dimensions, e.g. region,lob (empty = no cube)",
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
