package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder was created, so a dump is self-contained and seed-independent.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = no parent
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// recorder keeps spans in memory; nothing is written until dump. A nil
// *recorder records nothing, which is how untraced passes run the same
// code.
type recorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	pass  int
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// nextPass tags the spans that follow with a new pass number.
func (r *recorder) nextPass() {
	r.mu.Lock()
	r.pass++
	r.mu.Unlock()
}

// begin opens a span under parent (0 for a root) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, Pass: r.pass, StartNS: now})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// endedChild records a span of duration d that ended when parent did,
// for a layer whose duration is reported to the benchmark rather than
// observed by it.
func (r *recorder) endedChild(name string, parent int, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	end := r.spans[parent-1].EndNS
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Workload: r.workload, Pass: r.pass, StartNS: end - d.Nanoseconds(), EndNS: end})
}

// len is the number of spans recorded so far.
func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfSeconds is a span's duration minus the part of it that its direct
// children cover. Children of a parallel layer overlap, so the covered
// part is the union of their intervals (clipped to the parent), not the
// sum of their durations.
func selfSeconds(parent span, children []span) float64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, reach := int64(0), parent.StartNS
	for _, v := range ivs {
		if lo := max(v.lo, reach); v.hi > lo {
			covered += v.hi - lo
			reach = v.hi
		}
	}
	return float64(parent.EndNS-parent.StartNS-covered) / 1e9
}

// childrenOf returns the direct children of span id.
func childrenOf(spans []span, id int) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// dumpedSpan adds the derived self time to what is written out.
type dumpedSpan struct {
	span
	SelfS float64 `json:"self_s"`
}

// dump writes every span, with its self time, as one JSON array.
func (r *recorder) dump(path string) error {
	spans := r.snapshot()
	byParent := make(map[int][]span)
	for _, s := range spans {
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	out := make([]dumpedSpan, len(spans))
	for i, s := range spans {
		out[i] = dumpedSpan{span: s, SelfS: selfSeconds(s, byParent[s.ID])}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
