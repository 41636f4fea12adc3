package harness

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/sim"
)

// TestRecycledNodesMatchFresh holds every registered factory's re-armed
// nodes (amac.NodeConfig.Prev) to fresh ones. The golden grid, widened to
// all seven algorithms and every input pattern, runs on one executor in
// shuffled order, so n, the algorithm, its configuration and the inputs
// change between Resets and each run's factory receives whatever node the
// previous cell left in the slot — stopped early, mid-broadcast or
// crashed. Half the runs, drawn at random, get sparse ids
// (sim.Config.IDs), so the tables only ids outside 1..n reach — Ω's
// off-bitset members, two-phase's blocks past the first — carry something
// over too. Each run's Result and every node's View must equal a run of
// the same scenario whose nodes were built without a Prev.
//
// Then one executor runs floodpaxos, wpaxos, floodpaxos and wpaxos again
// on one graph, the first wpaxos run cut by a crash: a flood node gets its
// tree transport's state on its first tree run and keeps it through the
// flood run after, and each run must still equal a fresh one.
//
// Then 8 runs of wpaxos expander:1024:8, alternating seeds 1 and 2, share
// one engine (where every large bucket is a parallel phase when there are
// Ps for it): the live heap after each run stays within 5 % of the heap
// after the first, fresh one. Two seeds, because fresh nodes alone vary
// by about 9 % in live heap across seeds 1–8 of this cell; what the
// bound catches is storage that keeps growing with every run.
func TestRecycledNodesMatchFresh(t *testing.T) {
	g := goldenGrid()
	g.Algos, g.Inputs = Algorithms(), InputPatterns()
	g.MaxEvents = 100_000 // benor and the defeated baselines may spin on ring:5
	work, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	var scenarios []Scenario
	for _, w := range work {
		for _, seed := range w.Seeds {
			s := w.Base
			s.Seed = seed
			scenarios = append(scenarios, s)
		}
	}
	rng := rand.New(rand.NewSource(41))
	rng.Shuffle(len(scenarios), func(i, j int) { scenarios[i], scenarios[j] = scenarios[j], scenarios[i] })

	// run executes s with the given ids (nil: the default 1..n) on x, or
	// on a fresh engine with every Prev withheld from the factory when x
	// is nil, and returns its outcome with every node's View, read before
	// anything resets x.
	run := func(s Scenario, ids []amac.NodeID, x *executor) (*Outcome, []amac.View) {
		t.Helper()
		cfg, err := s.Config()
		if err != nil {
			t.Fatal(err)
		}
		if ids != nil {
			cfg.IDs = ids[:cfg.Graph.N()]
		}
		var nodes []amac.Inspector
		build, fresh := cfg.Factory, x == nil
		cfg.Factory = func(nc amac.NodeConfig) amac.Algorithm {
			if fresh {
				nc.Prev = nil
			}
			a := build(nc)
			nodes = append(nodes, a.(amac.Inspector))
			return a
		}
		if fresh {
			x = new(executor)
		}
		out, _, _, err := x.execute(s, cfg, cfg.Graph.Diameter(), Exec{})
		if err != nil {
			t.Fatal(err)
		}
		views := make([]amac.View, len(nodes))
		for i, nd := range nodes {
			views[i] = nd.Inspect()
		}
		return out, views
	}
	// match runs s on x and on a fresh engine and requires the same
	// Result and Views.
	match := func(s Scenario, ids []amac.NodeID, x *executor) {
		t.Helper()
		want, wantViews := run(s, ids, nil)
		got, gotViews := run(s, ids, x)
		name := fmt.Sprintf("%s %s %s inputs=%s crashes=%s overlay=%s ids=%v", s.Algo, s.Topo, s.Sched, s.Inputs, s.Crashes, s.Overlay, ids)
		if !reflect.DeepEqual(got.Result, want.Result) {
			t.Fatalf("%s seed %d: recycled run differs from a fresh engine's:\n got %+v\nwant %+v", name, s.Seed, got.Result, want.Result)
		}
		for i := range wantViews {
			if gotViews[i] != wantViews[i] {
				t.Fatalf("%s seed %d node %d: recycled view %+v, fresh %+v", name, s.Seed, i, gotViews[i], wantViews[i])
			}
		}
	}
	reused := new(executor)
	for _, s := range scenarios {
		var ids []amac.NodeID
		if rng.Intn(2) == 1 {
			// Distinct and spread over about 2^40 values, negatives included.
			for _, v := range rng.Perm(1 << 12)[:8] {
				ids = append(ids, amac.NodeID(v)<<28-1<<39+amac.NodeID(rng.Intn(1<<28)))
			}
		}
		match(s, ids, reused)
	}
	switched := new(executor)
	for i, algo := range []string{"floodpaxos", "wpaxos", "floodpaxos", "wpaxos"} {
		s := Scenario{Algo: algo, Topo: Topo{Kind: "expander", N: 32, Deg: 4}, Sched: "random", Fack: 4, Seed: int64(1 + i)}
		if i == 1 {
			s.Crashes = "maxid@6"
		}
		match(s, nil, switched)
	}

	if testing.Short() {
		return
	}
	var eng *sim.Engine
	var first uint64
	for run := int64(0); run < 8; run++ {
		seed := 1 + run%2
		cfg, err := Scenario{Algo: "wpaxos", Topo: Topo{Kind: "expander", N: 1024, Deg: 8},
			Sched: "random", Fack: 4, Seed: seed}.Config()
		if err != nil {
			t.Fatal(err)
		}
		if eng == nil {
			eng = sim.NewEngine(cfg)
		} else {
			eng.Reset(cfg)
		}
		if res := eng.Run(); !consensus.Check(cfg.Inputs, res).Termination {
			t.Fatalf("seed %d: not all decided after %d events", seed, res.Events)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if run == 0 {
			first = ms.HeapAlloc
			continue
		}
		if growth := float64(ms.HeapAlloc)/float64(first) - 1; growth > 0.05 {
			t.Errorf("run %d (seed %d): live heap %d B is %.1f %% above the first run's %d B (want <= 5 %%)",
				run, seed, ms.HeapAlloc, 100*growth, first)
		}
	}
	runtime.KeepAlive(eng)
}
