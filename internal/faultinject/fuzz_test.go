package faultinject

import (
	"strings"
	"testing"
)

// FuzzParse drives the -chaos grammar with arbitrary specs. Parse may
// refuse a spec but must not panic, and a plan it accepts holds only
// values that mean something: a rate in [0,1], counts and delays of at
// least zero, and targets of at least zero, with Any only where the
// spec spells "*". The seed corpus is the documented grammar, the CI
// chaos spec, and the values the grammar once let through.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "rate=0.1", "shard=3@2", "shard=*@1", "kill=1@4", "delay=2@50ms",
		"rate=0.1, shard=3@1, kill=1@4, delay=2@50ms",
		"shard=*@1,rate=0.10,kill=2@1",
		"rate=NaN", "rate=-0", "rate=1e-3", "rate=0x1p-2", "rate=Inf",
		"shard=-1@2", "kill=-5@1", "delay=-2@1s", "delay=1@-1s", "kill=*@1",
		"shard=+3@1", "kill=1@-1", ",", "rate=", "=", "shard=@", "delay=@",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec, 1)
		if err != nil || p == nil {
			if err == nil && strings.TrimSpace(spec) != "" {
				t.Fatalf("Parse(%q): nil plan without an error", spec)
			}
			return
		}
		if !(p.rate >= 0 && p.rate <= 1) {
			t.Fatalf("Parse(%q): rate %v outside [0,1]", spec, p.rate)
		}
		wild := strings.Contains(spec, "*")
		for _, r := range p.fails {
			if r.Attempts < 0 || r.Node != Any || !(r.Shard >= 0 || r.Shard == Any && wild) {
				t.Fatalf("Parse(%q): shard rule %+v", spec, r)
			}
		}
		for node, after := range p.kills {
			if node < 0 || after < 0 {
				t.Fatalf("Parse(%q): kill rule node %d after %d tasks", spec, node, after)
			}
		}
		for split, d := range p.delay {
			if split < 0 || d < 0 {
				t.Fatalf("Parse(%q): delay rule split %d by %v", spec, split, d)
			}
		}
	})
}
