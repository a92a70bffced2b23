package main

import (
	"math"
	"testing"
)

func TestSelfSecondsUnion(t *testing.T) {
	sec := func(s float64) int64 { return int64(s * 1e9) }
	parent := span{ID: 1, StartNS: sec(10), EndNS: sec(20)}
	child := func(lo, hi float64) span { return span{Parent: 1, StartNS: sec(lo), EndNS: sec(hi)} }
	cases := []struct {
		name     string
		children []span
		want     float64
	}{
		{"no children", nil, 10},
		{"sequential", []span{child(10, 12), child(15, 16)}, 7},
		// Two workers busy at once: 11-14 and 13-17 cover 11-17, not 3+4.
		{"overlapping", []span{child(11, 14), child(13, 17)}, 4},
		{"nested", []span{child(11, 18), child(12, 13), child(14, 15)}, 3},
		{"unsorted and touching", []span{child(15, 20), child(10, 15)}, 0},
		{"clipped to the parent", []span{child(5, 11), child(19, 30)}, 8},
		{"outside the parent", []span{child(1, 2), child(25, 26)}, 10},
		{"identical", []span{child(12, 14), child(12, 14), child(12, 14)}, 8},
	}
	for _, c := range cases {
		if got := selfSeconds(parent, c.children); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: self time %g s, want %g s", c.name, got, c.want)
		}
	}
}

func TestRecorderParentsAndPasses(t *testing.T) {
	rec := newRecorder("w")
	rec.nextPass()
	root := rec.begin("core", 0)
	a := rec.begin("a", root)
	rec.end(a)
	rec.endedChild("reported", a, 0)
	rec.end(root)
	rec.nextPass()
	rec.end(rec.begin("core", 0))

	spans := rec.snapshot()
	if len(spans) != 4 || rec.len() != 4 {
		t.Fatalf("recorded %d spans, want 4", len(spans))
	}
	if got := childrenOf(spans, root); len(got) != 1 || got[0].Name != "a" {
		t.Errorf("children of the root = %+v, want the one span a", got)
	}
	if r := spans[2]; r.Parent != a || r.EndNS != spans[1].EndNS {
		t.Errorf("reported child %+v does not end with its parent %+v", r, spans[1])
	}
	if spans[0].Pass != 1 || spans[3].Pass != 2 || spans[3].Workload != "w" {
		t.Errorf("pass or workload tags wrong: %+v", spans)
	}
	var none *recorder // untraced code paths record through a nil recorder
	none.end(none.begin("x", 0))
	none.endedChild("y", 1, 0)
}
