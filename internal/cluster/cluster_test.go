package cluster

import "testing"

// Elastic follows demand up to its cap; Static ignores demand.
func TestElasticCap(t *testing.T) {
	e := Elastic{Max: 10}
	for demand, want := range map[int]int{1: 1, 3: 3, 10: 10, 1000: 10} {
		if got := e.Provision(demand); got != want {
			t.Fatalf("Elastic{10}.Provision(%d) = %d, want %d", demand, got, want)
		}
	}
	if got := (Static{N: 8}).Provision(1000); got != 8 {
		t.Fatalf("Static{8}.Provision(1000) = %d, want 8", got)
	}
	if e.Name() != "elastic-max10" || (Static{N: 8}).Name() != "static-8" {
		t.Fatalf("names %q, %q", e.Name(), Static{N: 8}.Name())
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
	}{
		{"", nil},
		{"static:8", Static{N: 8}},
		{"elastic:64", Elastic{Max: 64}},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParsePolicy(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
	// The degraded:K:POLICY form is gone: each one is refused, by name.
	for _, bad := range []string{"static", "static:", "static:0", "static:-3", "elastic:x",
		"spot:4", "8", "degraded:2", "degraded:x:static:8", "degraded:-1:static:8", "degraded:2:",
		"degraded:2:elastic:64", "degraded:0:static:8"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Fatalf("ParsePolicy(%q) should error", bad)
		}
	}
	if _, err := ParsePolicy("degraded:2:static:8"); err == nil ||
		err.Error() != `cluster: unknown policy kind "degraded" (want static or elastic)` {
		t.Fatalf("ParsePolicy(degraded:2:static:8) error = %v", err)
	}
}
