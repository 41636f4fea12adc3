package sim

import (
	"reflect"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/graph"
)

// engineResetConfigs is a reuse-hostile sequence: a crashy run, a
// non-quiescent run cut off with events still queued, an unreliable-graph
// run, and a smaller-topology run, so a leak of crash flags, decisions,
// queued events or result-slice lengths across Reset would surface.
func engineResetConfigs() []Config {
	ring := graph.Ring(6)
	line := graph.Line(4)
	chords := graph.RandomOverlay(ring, 3, 11)
	return []Config{
		{
			Graph:     ring,
			Inputs:    inputs(0, 1, 0, 1, 0, 1),
			Factory:   onceFactory,
			Scheduler: NewRandom(5, 3),
			Crashes:   []Crash{{Node: 2, At: 2}, {Node: 5, At: 0}},
		},
		{
			Graph:     ring,
			Inputs:    inputs(1, 1, 1, 1, 1, 1),
			Factory:   func(amac.NodeConfig) amac.Algorithm { return &chatterAlg{} },
			Scheduler: NewRandom(4, 7),
			MaxEvents: 500, // cutoff leaves events queued for Reset to drain
		},
		{
			Graph:      ring,
			Inputs:     inputs(0, 0, 1, 1, 0, 0),
			Factory:    onceFactory,
			Scheduler:  NewLossy(NewRandom(6, 9), 0.5, 21),
			Unreliable: chords,
		},
		{
			Graph:     line,
			Inputs:    inputs(0, 1, 1, 0),
			Factory:   onceFactory,
			Scheduler: Synchronous{Round: 3},
		},
	}
}

// fresh rebuilds a config with fresh scheduler state (seeded schedulers
// advance their rng as they plan, so reference runs need their own copies).
func freshResetConfig(t *testing.T, i int) Config {
	t.Helper()
	return engineResetConfigs()[i]
}

// TestEngineResetMatchesFreshRun is the reuse-soundness test: every run on
// a single reused engine must produce a result identical to the same
// configuration run on a fresh engine.
func TestEngineResetMatchesFreshRun(t *testing.T) {
	var e *Engine
	for i := range engineResetConfigs() {
		cfg := freshResetConfig(t, i)
		if e == nil {
			e = NewEngine(cfg)
		} else {
			e.Reset(cfg)
		}
		got := e.Run()
		want := Run(freshResetConfig(t, i))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("config %d: reused engine result differs from fresh engine:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
	// And back to the first config: a full cycle must still match.
	e.Reset(freshResetConfig(t, 0))
	got := e.Run()
	want := Run(freshResetConfig(t, 0))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("re-running config 0 on the cycled engine differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestEngineResetLeavesNoState inspects the engine internals after Reset:
// no crash flags, decisions or in-flight broadcasts survive from the prior
// run, the queue and every bucket of its ring are empty, and no in-flight
// message slot still holds the payload of a dropped delivery.
func TestEngineResetLeavesNoState(t *testing.T) {
	crashy := freshResetConfig(t, 0)
	e := NewEngine(crashy)
	res := e.Run()
	if res.Crashed[2] != true || res.Crashed[5] != true {
		t.Fatalf("crashy run did not crash nodes 2 and 5: %+v", res.Crashed)
	}

	// Cut off a chatter run so events are still queued at Reset time.
	e.Reset(freshResetConfig(t, 1))
	res = e.Run()
	if !res.Cutoff {
		t.Fatal("chatter run was not cut off")
	}
	if e.q.len() == 0 {
		t.Fatal("cutoff run should leave events queued (the test wants the drain path)")
	}

	e.Reset(freshResetConfig(t, 3))
	if e.q.len() != 0 {
		t.Errorf("%d events still queued after Reset", e.q.len())
	}
	// Every bucket the engine owns, past the new ring's span too: a stale
	// entry there would replay when a later Reset widens the ring again.
	for i, b := range e.q.buckets[:cap(e.q.buckets)] {
		if len(b.dels) != 0 || len(b.acks) != 0 {
			t.Errorf("bucket %d not empty after Reset: %d deliveries, %d acks", i, len(b.dels), len(b.acks))
		}
	}
	for i, m := range e.inMsg[:cap(e.inMsg)] {
		if m != nil {
			t.Errorf("inMsg[%d] retains message %v after Reset", i, m)
		}
	}
	for i := range e.algs {
		if e.res.Crashed[i] || e.crashAt[i] >= 0 {
			t.Errorf("node %d keeps crash state (crashed=%v crashAt=%d) from the prior run", i, e.res.Crashed[i], e.crashAt[i])
		}
		if e.res.Decided[i] || e.inflight[i] || e.inMsg[i] != nil || e.bseq[i] != 0 {
			t.Errorf("node %d keeps run state (decided=%v inflight=%v bseq=%d)", i, e.res.Decided[i], e.inflight[i], e.bseq[i])
		}
	}
	if e.now != 0 || e.q.cur != 0 {
		t.Errorf("clock not reset: now=%d queue cursor=%d", e.now, e.q.cur)
	}
	res = e.Run()
	for i, crashed := range res.Crashed {
		if crashed {
			t.Errorf("node %d reported crashed in a fault-free run", i)
		}
	}
	if !allDecided(res) {
		t.Errorf("fault-free run after reuse did not decide everywhere: %+v", res)
	}
}

// TestResetAfterEarlyStop reuses one engine across runs that stop before
// the queue is done with its bucket, alternating (b), (a), (b): (a) every
// node of clique:64 broadcasts once and decides at its ack, so the stop
// rule fires on the last event with the queue empty but the last bucket
// undrained; (b) the same broadcasts under a MaxEvents cutoff
// inside a bucket. Both push exactly the same events, so every warm run
// must repeat its fresh-engine result and leave the bucket arrays as large
// as it found them, and each runs as the oracle requires. A Reset that kept
// run (a)'s last bucket would have run 3 append behind its stale entries.
func TestResetAfterEarlyStop(t *testing.T) {
	g := graph.Clique(64)
	mk := func(maxEvents int) Config {
		return Config{
			Graph:     g,
			Inputs:    make([]amac.Value, g.N()),
			Factory:   onceFactory,
			Scheduler: NewRandom(4, 7),
			MaxEvents: maxEvents,
		}
	}
	const cut = 1000 // of 4096 events; the loop checks it falls inside a bucket
	var e *Engine
	caps := make([]int, 3)
	for run, maxEvents := range []int{cut, 0, cut} {
		cfg, o := Watch(t, mk(maxEvents))
		if e == nil {
			e = NewEngine(cfg)
		} else {
			e.Reset(cfg)
		}
		got := e.Run()
		o.Check(got)
		caps[run] = e.QueueCap()
		if maxEvents == 0 {
			if !allDecided(got) || e.q.len() != 0 {
				t.Fatalf("run %d: decided=%v with %d events queued, want every node decided on the last event", run, allDecided(got), e.q.len())
			}
		} else {
			b := e.q.buckets[got.Time&e.q.mask]
			if !got.Cutoff || len(b.dels)+len(b.acks) == 0 {
				t.Fatalf("run %d: cutoff=%v at t=%d, want a cutoff inside that bucket", run, got.Cutoff, got.Time)
			}
		}
		want := Run(mk(maxEvents))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: reused engine result differs from fresh engine:\ngot  %+v\nwant %+v", run, got, want)
		}
	}
	if caps[2] != caps[1] {
		t.Fatalf("bucket arrays hold %d entries after run 3, %d after run 2: a warm run grew them", caps[2], caps[1])
	}
}

// TestEngineResetShrinksAndGrows exercises node-count changes in both
// directions: result slices must track the new topology size exactly, a
// shrink must leave no node or message of the previous run past the new
// size, and a grow — within the arrays' capacity or past it — must hand
// the factory the previous run's node for exactly the slots that run had.
func TestEngineResetShrinksAndGrows(t *testing.T) {
	small := freshResetConfig(t, 3) // 4 nodes; the others have 6
	// grow resets e to config 0 and fails unless the factory gets a Prev
	// for exactly the 4 slots of the small run.
	grow := func(name string, e *Engine) {
		t.Helper()
		cfg := freshResetConfig(t, 0)
		prev := make([]bool, cfg.Graph.N())
		factory := cfg.Factory
		cfg.Factory = func(nc amac.NodeConfig) amac.Algorithm {
			prev[nc.ID-1] = nc.Prev != nil
			return factory(nc)
		}
		e.Reset(cfg)
		if want := []bool{true, true, true, true, false, false}; !reflect.DeepEqual(prev, want) {
			t.Fatalf("%s: the factory got Prev at %v, want %v", name, prev, want)
		}
	}
	// The chatter run is cut off with broadcasts in flight, so slots 4 and
	// 5 hold a node and a message when the shrink comes.
	e := NewEngine(freshResetConfig(t, 1))
	e.Run()
	if e.inMsg[4] == nil && e.inMsg[5] == nil {
		t.Fatal("the chatter run left no message in flight at nodes 4 and 5")
	}
	e.Reset(small)
	if algs, msgs := heldPastLen(e); algs != 0 || msgs != 0 {
		t.Fatalf("after the shrink, %d nodes and %d messages are held past n", algs, msgs)
	}
	res := e.Run()
	if len(res.Decided) != 4 || len(res.Crashed) != 4 {
		t.Fatalf("result slices not resized down: %d/%d", len(res.Decided), len(res.Crashed))
	}
	grow("grow within capacity", e)
	res = e.Run()
	if len(res.Decided) != 6 {
		t.Fatalf("result slices not resized up: %d", len(res.Decided))
	}
	if !reflect.DeepEqual(res, Run(freshResetConfig(t, 0))) {
		t.Fatal("grow-after-shrink run differs from fresh engine")
	}

	e = NewEngine(small)
	e.Run()
	grow("grow past capacity", e)
	if !reflect.DeepEqual(e.Run(), Run(freshResetConfig(t, 0))) {
		t.Fatal("grow-past-capacity run differs from fresh engine")
	}
}

// TestStopSchedules runs the stop rule under the oracle, which requires
// each run to end on the event that makes the last owed decision. The crash
// schedules cover crashes before, at, and after the node's decision, a node
// crashed at time 0, a doomed node whose crash comes after every crash-free
// node has decided, and runs where every node has a scheduled crash, so
// none owes a decision and the run ends on the first event that reaches a
// node, never on a crash drop. That last case is the only test of the
// rule that a crash drop does not evaluate the stop: with the stop test
// also run after drops, every other test in the module passes.
func TestStopSchedules(t *testing.T) {
	ring := graph.Ring(6)
	ins := inputs(0, 1, 0, 1, 0, 1)
	schedules := [][]Crash{
		nil,
		{{Node: 5, At: 0}},
		{{Node: 0, At: 1}, {Node: 3, At: 2}},
		{{Node: 2, At: 4}, {Node: 2, At: 9}},
		{{Node: 1, At: 40}},                  // typically after node 1 decides
		{{Node: 0, At: 4}, {Node: 5, At: 7}}, // node 5 crashes after every crash-free decision (t <= 5)
		{{Node: 0, At: 1}, {Node: 1, At: 1}, {Node: 2, At: 1}, {Node: 3, At: 1}, {Node: 4, At: 1}, {Node: 5, At: 1}},
	}
	for ci, crashes := range schedules {
		for seed := int64(1); seed <= 8; seed++ {
			res, _ := RunWatched(t, Config{
				Graph:     ring,
				Inputs:    ins,
				Factory:   onceFactory,
				Scheduler: NewRandom(5, seed),
				Crashes:   crashes,
			})
			if res.Events == 0 {
				t.Errorf("crashes[%d] seed %d: the run processed no event", ci, seed)
			}
		}
	}
}
