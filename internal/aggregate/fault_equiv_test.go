package aggregate

import (
	"context"
	"testing"
	"time"

	"repro/internal/diskstore"
	"repro/internal/faultinject"
	"repro/internal/layers"
	"repro/internal/lossindex"
	"repro/internal/synth"
	"repro/internal/yelt"
)

// The fault-tolerance contract: a MapReduce run over a spilled source
// is bit-identical to the fault-free Sequential run under any injected
// fault plan it survives — shard-read failures recovered by map
// retries or replica failover, node kills recovered by work stealing,
// stragglers recovered by speculation. Faults may only change
// scheduling and counters, never values.

// replicatedSource spills the scenario at the given replication factor
// across 3 storage nodes and 5 shards.
func replicatedSource(t *testing.T, s *synth.Scenario, replicas int) *yelt.DiskSource {
	t.Helper()
	store, err := diskstore.Create(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := yelt.Spill(context.Background(), s.YELT, store, "yelt", 5, replicas, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestFaultEquivalenceMatrix(t *testing.T) {
	s := buildScenario(t, synth.Small(71))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 43, Sampling: true, PerContract: true, Workers: 3, BatchTrials: 151}
	// Each row runs the book as built and again under standard
	// reinstatement terms, whose premium column a commit must land once.
	books := []struct {
		name string
		pf   *layers.Portfolio
		want *Result
	}{{name: "stateless", pf: s.Portfolio}, {name: "standard-terms", pf: withTerms(s.Portfolio, nil)}}
	for i := range books {
		books[i].want, err = Sequential{}.Run(context.Background(),
			&Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: books[i].pf, Index: ix}, cfg)
		if err != nil {
			t.Fatal(err)
		}
	}

	sources := map[int]*yelt.DiskSource{
		1: replicatedSource(t, s, 1),
		2: replicatedSource(t, s, 2),
	}
	// Every row runs the one scheduler, shard-affine lanes; the placement
	// in a row's name is only the label the row is pinned under.
	cases := []struct {
		name      string
		replicas  int
		speculate bool
		rules     func(ds *yelt.DiskSource) []faultinject.Rule
	}{
		{"clean/r1/affine", 1, false, nil},
		{"clean/r2/affine", 2, false, nil},
		// Every (shard, node) site's first read fails: unreplicated
		// recovery is purely the map-retry loop.
		{"first-read-fails/r1/affine", 1, false,
			func(*yelt.DiskSource) []faultinject.Rule {
				return []faultinject.Rule{faultinject.FailShardRead{
					Shard: faultinject.Any, Node: faultinject.Any, Attempts: 1,
				}}
			}},
		{"first-read-fails/r2/blind", 2, false,
			func(*yelt.DiskSource) []faultinject.Rule {
				return []faultinject.Rule{faultinject.FailShardRead{
					Shard: faultinject.Any, Node: faultinject.Any, Attempts: 1,
				}}
			}},
		// Shard 1's primary replica is dead for good: every scan of it
		// must fail over to the surviving replica.
		{"primary-dead/r2/affine", 2, false,
			func(ds *yelt.DiskSource) []faultinject.Rule {
				return []faultinject.Rule{faultinject.FailShardRead{
					Shard: 1, Node: ds.ShardNodes(1)[0], Attempts: 1 << 30,
				}}
			}},
		// Random 10% read-attempt failures over replicated shards.
		{"rate10/r2/affine", 2, false,
			func(*yelt.DiskSource) []faultinject.Rule {
				return []faultinject.Rule{faultinject.FailShardReadRate{Rate: 0.10}}
			}},
		// A node is dead on arrival; survivors steal its whole lane.
		// (Dead-on-arrival rather than after-N so the kill fires no
		// matter how fast the other lanes drain the queue.)
		{"kill/r1/affine", 1, false,
			func(*yelt.DiskSource) []faultinject.Rule {
				return []faultinject.Rule{faultinject.KillNode{Node: 2, AfterTasks: 0}}
			}},
		// An injected straggler with speculation on: the backup wins or
		// loses, the result must not care.
		{"straggler/r2/affine/spec", 2, true,
			func(*yelt.DiskSource) []faultinject.Rule {
				return []faultinject.Rule{faultinject.DelaySplit{Split: 0, Delay: 60 * time.Millisecond}}
			}},
		// Everything at once.
		{"rate+kill/r2/blind", 2, false,
			func(*yelt.DiskSource) []faultinject.Rule {
				return []faultinject.Rule{
					faultinject.FailShardReadRate{Rate: 0.05},
					faultinject.KillNode{Node: 1, AfterTasks: 2},
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, b := range books {
				// A fresh plan per run: a plan counts the faults it has
				// injected. A fresh attach too: a source moves a replica
				// whose read failed behind the others, so a reused one
				// would not read the faulty replica again.
				ds, err := yelt.OpenDiskSource(sources[tc.replicas].Store(), "yelt")
				if err != nil {
					t.Fatal(err)
				}
				var plan *faultinject.Plan
				if tc.rules != nil {
					plan = faultinject.New(cfg.Seed, tc.rules(ds)...)
				}
				eng := MapReduce{
					SplitTrials: 200,
					MaxAttempts: 5,
					Speculate:   tc.speculate,
					Faults:      plan,
				}
				in := &Input{Source: ds, ELTs: s.ELTs, Portfolio: b.pf, Index: ix}
				got, err := eng.Run(context.Background(), in, cfg)
				if err != nil {
					t.Fatalf("run under %s, %s book: %v", tc.name, b.name, err)
				}
				resultsBitIdentical(t, "faults/"+tc.name+"/"+b.name, b.want, got)
				if tc.rules != nil && plan.Injected() == 0 {
					t.Fatalf("%s, %s book: plan injected nothing — the case tests no fault path", tc.name, b.name)
				}
			}
		})
	}
}

// The ISSUE's acceptance scenario: 10% injected shard-read failures,
// one node killed mid-job, replication r=2, speculation on — the job
// completes, its YLT is bit-identical to the fault-free Sequential
// run, and the recovery counters account the chaos.
func TestFaultAcceptanceScenario(t *testing.T) {
	s := buildScenario(t, synth.Small(73))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 47, Sampling: true, PerContract: true, Workers: 6, BatchTrials: 151}
	want, err := Sequential{}.Run(context.Background(),
		&Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := replicatedSource(t, s, 2)
	// Node 1 dies after one task start; 100-trial splits give the job
	// 20 splits, so the kill lands mid-job with plenty left to steal.
	plan, err := faultinject.Parse("rate=0.10,kill=1@1", cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	eng := MapReduce{SplitTrials: 100, MaxAttempts: 5, Speculate: true, Faults: plan}
	in := &Input{Source: ds, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}
	got, err := eng.Run(context.Background(), in, cfg)
	if err != nil {
		t.Fatalf("acceptance run failed outright: %v", err)
	}
	resultsBitIdentical(t, "acceptance", want, got)
	if plan.Injected() == 0 {
		t.Fatal("plan injected no faults")
	}
	if got.ShardFailovers+got.MapRetries == 0 {
		t.Fatalf("no recovery recorded (failovers=%d retries=%d) despite %d injected faults",
			got.ShardFailovers, got.MapRetries, plan.Injected())
	}
	if got.WorkersLost == 0 {
		t.Fatal("node kill retired no workers")
	}
}

// A fault the system cannot absorb — every replica of a shard dead
// past the attempt budget — must fail the job loudly, never return
// short or wrong data.
func TestFaultUnrecoverableFailsLoudly(t *testing.T) {
	s := buildScenario(t, synth.Small(75))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	ds := replicatedSource(t, s, 2)
	plan := faultinject.New(1, faultinject.FailShardRead{
		Shard: 2, Node: faultinject.Any, Attempts: 1 << 30,
	})
	eng := MapReduce{SplitTrials: 200, MaxAttempts: 3, Faults: plan}
	in := &Input{Source: ds, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}
	if _, err := eng.Run(context.Background(), in, Config{Seed: 3, Workers: 3, BatchTrials: 151}); err == nil {
		t.Fatal("job with an unreadable shard should fail")
	}
}
