// Package cluster holds the provisioning policies the pipeline runs
// under: "While in the first stage less than ten processors may be
// sufficient to handle the data, in the second and third stages
// thousands or even tens of thousands of processors need to be put
// together ... The elastic demand ... makes cloud-based computing
// attractive" (§II). core.Config.Provision asks a policy for each
// stage's worker bound, given the stage's exploitable parallelism, and
// the stage reports account allocated versus busy processor-time from
// the measured run; experiment E7 tabulates them.
package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// Policy decides how many processors are provisioned while a stage
// with the given demand ceiling runs.
type Policy interface {
	// Name labels the policy in reports.
	Name() string
	// Provision returns processors allocated (billed) for a demand.
	Provision(demand int) int
}

// Static provisions a fixed fleet regardless of demand — the owned
// cluster. Capacity idles through low-demand stages, and high-demand
// stages are capped at the fleet size.
type Static struct{ N int }

// Name implements Policy.
func (s Static) Name() string { return fmt.Sprintf("static-%d", s.N) }

// Provision implements Policy.
func (s Static) Provision(int) int { return s.N }

// Elastic provisions up to demand, bounded by a provider cap — the
// cloud model the paper argues for.
type Elastic struct{ Max int }

// Name implements Policy.
func (e Elastic) Name() string { return fmt.Sprintf("elastic-max%d", e.Max) }

// Provision implements Policy.
func (e Elastic) Provision(demand int) int {
	if demand > e.Max {
		return e.Max
	}
	return demand
}

// ParsePolicy parses the CLI form of a provisioning policy: "static:N"
// (fixed fleet of N) or "elastic:N" (scale to demand, capped at N). ""
// returns (nil, nil) — no policy, static Workers bound. This is how
// the pipeline CLIs select the policy the stages run under.
func ParsePolicy(s string) (Policy, error) {
	if s == "" {
		return nil, nil
	}
	kind, arg, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("cluster: policy %q: want kind:N (static:8, elastic:64)", s)
	}
	n, err := strconv.Atoi(arg)
	switch {
	case kind != "static" && kind != "elastic":
		return nil, fmt.Errorf("cluster: unknown policy kind %q (want static or elastic)", kind)
	case err != nil || n <= 0:
		return nil, fmt.Errorf("cluster: policy %q: processor count %q must be a positive integer", s, arg)
	case kind == "static":
		return Static{N: n}, nil
	default:
		return Elastic{Max: n}, nil
	}
}
