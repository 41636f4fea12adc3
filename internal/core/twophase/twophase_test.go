package twophase

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
)

func run(t *testing.T, n int, inputs []amac.Value, sched sim.Scheduler) *sim.Result {
	t.Helper()
	return sim.Run(sim.Config{
		Graph:     graph.Clique(n),
		Inputs:    inputs,
		Factory:   Factory,
		Scheduler: sched,
	})
}

func inputBits(n, mask int) []amac.Value {
	out := make([]amac.Value, n)
	for i := range out {
		if mask&(1<<i) != 0 {
			out[i] = 1
		}
	}
	return out
}

func TestUnanimousSynchronous(t *testing.T) {
	for _, v := range []amac.Value{0, 1} {
		inputs := []amac.Value{v, v, v, v}
		res := run(t, 4, inputs, sim.Synchronous{})
		rep := consensus.Check(inputs, res)
		if !rep.OK() {
			t.Fatalf("input %d: %v", v, rep.Errors)
		}
		if rep.Value != v {
			t.Fatalf("input %d: decided %d", v, rep.Value)
		}
		// Two synchronous rounds: phase-1 ack at 1, phase-2 ack at 2.
		if res.MaxDecideTime != 2 {
			t.Fatalf("decision time %d, want 2", res.MaxDecideTime)
		}
	}
}

func TestMixedSynchronous(t *testing.T) {
	inputs := []amac.Value{0, 1, 0, 1, 1}
	res := run(t, 5, inputs, sim.Synchronous{})
	rep := consensus.Check(inputs, res)
	if !rep.OK() {
		t.Fatalf("%v", rep.Errors)
	}
	// Under the synchronous scheduler every node sees both values before
	// its phase-1 ack, so all go bivalent and the default 1 wins.
	if rep.Value != 1 {
		t.Fatalf("decided %d, want default 1", rep.Value)
	}
}

func TestSingleNode(t *testing.T) {
	for _, v := range []amac.Value{0, 1} {
		inputs := []amac.Value{v}
		res := run(t, 1, inputs, sim.Synchronous{})
		rep := consensus.Check(inputs, res)
		if !rep.OK() || rep.Value != v {
			t.Fatalf("single node input %d: report %+v", v, rep)
		}
	}
}

// TestEarlyDeciderForcesZero builds the adversarial situation from the
// proof of Theorem 4.1: node 0 (input 0) completes both phases before the
// 1-valued nodes complete phase 1, so node 0 reaches status decided(0) and
// decides 0; its phase-2 message lands in the other nodes' R1, and they
// must still follow it to 0. This exercises the R1-union-R2 scan (see the
// package comment on the paper's line 23).
func TestEarlyDeciderForcesZero(t *testing.T) {
	n := 5
	inputs := []amac.Value{0, 1, 1, 1, 1}
	slow := map[int]bool{}
	for i := 1; i < n; i++ {
		slow[i] = true
	}
	res := run(t, n, inputs, sim.SlowSubset{Base: sim.Synchronous{}, Slow: slow, Factor: 16})
	rep := consensus.Check(inputs, res)
	if !rep.OK() {
		t.Fatalf("%v", rep.Errors)
	}
	if rep.Value != 0 {
		t.Fatalf("decided %d, want 0 (early decider must win)", rep.Value)
	}
	// Node 0 must have decided first and strictly before the slow nodes'
	// phase-1 acks (t=16): it decided at its phase-2 ack, t=2.
	if res.DecideTime[0] != 2 {
		t.Fatalf("early decider decided at %d, want 2", res.DecideTime[0])
	}
}

// TestExhaustiveSmallCliques checks every input combination on cliques of
// 2..5 nodes under several schedulers.
func TestExhaustiveSmallCliques(t *testing.T) {
	scheds := map[string]func() sim.Scheduler{
		"sync":      func() sim.Scheduler { return sim.Synchronous{} },
		"maxdelay":  func() sim.Scheduler { return sim.MaxDelay{F: 5} },
		"edgeorder": func() sim.Scheduler { return &sim.EdgeOrder{MaxDegree: 5} },
		"random":    func() sim.Scheduler { return sim.NewRandom(7, 99) },
	}
	for n := 2; n <= 5; n++ {
		for mask := 0; mask < 1<<n; mask++ {
			inputs := inputBits(n, mask)
			for name, mk := range scheds {
				res := run(t, n, inputs, mk())
				rep := consensus.Check(inputs, res)
				if !rep.OK() {
					t.Fatalf("n=%d mask=%b sched=%s: %v", n, mask, name, rep.Errors)
				}
			}
		}
	}
}

// TestRandomCensus sweeps sizes and seeds under the random scheduler and
// verifies both correctness and the O(Fack) bound of Theorem 4.1: decisions
// within 4*Fack (phase-1 ack + phase-2 ack + witness phase-2 waits, each at
// most Fack after the enabling event, with a spare slot).
func TestRandomCensus(t *testing.T) {
	for _, n := range []int{2, 3, 8, 17, 33} {
		for _, f := range []int64{1, 3, 9} {
			for seed := int64(0); seed < 8; seed++ {
				inputs := make([]amac.Value, n)
				for i := range inputs {
					if (seed+int64(i))%3 == 0 {
						inputs[i] = 1
					}
				}
				res := run(t, n, inputs, sim.NewRandom(f, seed))
				rep := consensus.Check(inputs, res)
				if !rep.OK() {
					t.Fatalf("n=%d f=%d seed=%d: %v", n, f, seed, rep.Errors)
				}
				if res.MaxDecideTime > 4*f {
					t.Fatalf("n=%d f=%d seed=%d: decision time %d exceeds 4*Fack=%d", n, f, seed, res.MaxDecideTime, 4*f)
				}
			}
		}
	}
}

// TestCrashLosesTerminationNotSafety reproduces the consequence of
// Theorem 3.2 for this algorithm: with a crash failure it can fail to
// terminate (bivalent nodes wait on a dead witness), but agreement and
// validity hold among any nodes that do decide.
func TestCrashLosesTerminationNotSafety(t *testing.T) {
	n := 4
	foundStall := false
	for crashAt := int64(1); crashAt <= 6 && !foundStall; crashAt++ {
		inputs := []amac.Value{0, 1, 1, 1}
		res := sim.Run(sim.Config{
			Graph:     graph.Clique(n),
			Inputs:    inputs,
			Factory:   Factory,
			Scheduler: &sim.EdgeOrder{MaxDegree: n},
			Crashes:   []sim.Crash{{Node: 0, At: crashAt}},
		})
		rep := consensus.Check(inputs, res)
		// Safety must hold unconditionally.
		if !rep.Agreement {
			t.Fatalf("crashAt=%d: agreement violated: %v", crashAt, rep.Errors)
		}
		if rep.SomeoneDecided && !rep.Validity {
			t.Fatalf("crashAt=%d: validity violated: %v", crashAt, rep.Errors)
		}
		if !rep.Termination {
			foundStall = true
		}
	}
	if !foundStall {
		t.Fatal("no crash time caused a termination failure; expected at least one (Theorem 3.2)")
	}
}

func TestNonBinaryInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Factory(amac.NodeConfig{Input: 2})
}

func TestDecidedAccessor(t *testing.T) {
	if Factory(amac.NodeConfig{Input: 1}).(amac.Inspector).Inspect().Decided {
		t.Fatal("fresh instance reports decided")
	}
	inputs := []amac.Value{1, 1}
	algs := make([]amac.Inspector, 0, 2)
	factory := func(cfg amac.NodeConfig) amac.Algorithm {
		a := Factory(cfg)
		algs = append(algs, a.(amac.Inspector))
		return a
	}
	sim.Run(sim.Config{
		Graph:     graph.Clique(2),
		Inputs:    inputs,
		Factory:   factory,
		Scheduler: sim.Synchronous{},
	})
	for i, a := range algs {
		if v := a.Inspect(); v != (amac.View{Decided: true, Decision: 1, Omega: amac.NoID}) {
			t.Fatalf("node %d: Inspect() = %+v", i, v)
		}
	}
}

func TestMessageIDCounts(t *testing.T) {
	if (Phase1{}).IDCount() != 1 || (Phase2{}).IDCount() != 1 {
		t.Fatal("two-phase messages must carry exactly one id")
	}
}

// TestTimeScalesWithFackNotN is the shape check behind experiment E5:
// decision time grows linearly in Fack and stays flat in n.
func TestTimeScalesWithFackNotN(t *testing.T) {
	time := func(n int, f int64) int64 {
		inputs := inputBits(n, 0x55555555)
		res := run(t, n, inputs, sim.NewRandom(f, 42))
		rep := consensus.Check(inputs, res)
		if !rep.OK() {
			t.Fatalf("n=%d f=%d: %v", n, f, rep.Errors)
		}
		return res.MaxDecideTime
	}
	for _, n := range []int{4, 16, 64} {
		t4, t32 := time(n, 4), time(n, 32)
		if t32 > 4*32 || t4 > 4*4 {
			t.Fatalf("n=%d: times %d (f=4), %d (f=32) exceed the 4*Fack envelope", n, t4, t32)
		}
	}
	// Flat in n at fixed Fack: compare a small and a large clique.
	small, large := time(4, 16), time(96, 16)
	if large > 4*16 || small > 4*16 {
		t.Fatalf("decision times small=%d large=%d exceed 4*Fack=64", small, large)
	}
}

func ExampleFactory() {
	inputs := []amac.Value{0, 1, 0}
	res := sim.Run(sim.Config{
		Graph:     graph.Clique(3),
		Inputs:    inputs,
		Factory:   Factory,
		Scheduler: sim.Synchronous{},
	})
	rep := consensus.Check(inputs, res)
	fmt.Println("agreed:", rep.OK(), "value:", rep.Value)
	// Output: agreed: true value: 1
}

// TestConsensusProperty drives two-phase through testing/quick: arbitrary
// clique sizes, input masks, Fack bounds, and scheduler seeds must all
// satisfy the consensus properties and the Theorem 4.1 time envelope.
func TestConsensusProperty(t *testing.T) {
	f := func(nRaw uint8, mask uint16, fRaw uint8, seed int64) bool {
		n := int(nRaw%12) + 2
		fack := int64(fRaw%20) + 1
		inputs := inputBits(n, int(mask))
		res := sim.Run(sim.Config{
			Graph:     graph.Clique(n),
			Inputs:    inputs,
			Factory:   Factory,
			Scheduler: sim.NewRandom(fack, seed),
		})
		rep := consensus.Check(inputs, res)
		return rep.OK() && res.MaxDecideTime <= 4*fack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
