package cluster

import "testing"

// FuzzParsePolicy drives the -provision grammar with arbitrary strings.
// ParsePolicy may refuse one but must not panic, and a policy it
// accepts provisions at least one processor: every fleet size and cap
// is positive, every lost count is at least zero, and each "degraded:"
// level costs the input at least len("degraded:0:") bytes, so the
// nesting is bounded by its length.
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
		for depth := 1; ; depth++ {
			d, ok := p.(Degraded)
			if !ok {
				break
			}
			if d.Lost < 0 || depth*len("degraded:0:") > len(s) {
				t.Fatalf("ParsePolicy(%q): level %d is %+v", s, depth, d)
			}
			p = d.Inner
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
			t.Fatalf("ParsePolicy(%q): inner policy %#v", s, p)
		}
	})
}
