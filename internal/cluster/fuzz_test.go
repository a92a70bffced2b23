package cluster

import (
	"strings"
	"testing"
)

// FuzzParsePolicy drives the -provision grammar with arbitrary strings.
// ParsePolicy may refuse one but must not panic, it refuses every
// "degraded:" form (that policy kind is gone), and a policy it accepts
// provisions at least one processor: every fleet size and cap is
// positive.
func FuzzParsePolicy(f *testing.F) {
	for _, s := range []string{
		"", "static:8", "elastic:64", "degraded:2:elastic:64", "degraded:0:static:8",
		"degraded:1:degraded:2:static:9", "static:0", "static:-3", "elastic:x",
		"degraded:-1:static:8", "degraded:2:", "degraded:2", "spot:4", ":", "static:+4",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePolicy(s)
		if err != nil || p == nil {
			if err == nil && s != "" {
				t.Fatalf("ParsePolicy(%q): nil policy without an error", s)
			}
			return
		}
		if strings.HasPrefix(s, "degraded:") {
			t.Fatalf("ParsePolicy(%q) accepted a degraded policy: %#v", s, p)
		}
		switch q := p.(type) {
		case Static:
			if q.N <= 0 {
				t.Fatalf("ParsePolicy(%q): fleet of %d", s, q.N)
			}
		case Elastic:
			if q.Max <= 0 {
				t.Fatalf("ParsePolicy(%q): cap of %d", s, q.Max)
			}
		default:
			t.Fatalf("ParsePolicy(%q): policy %#v", s, p)
		}
	})
}
