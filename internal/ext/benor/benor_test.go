package benor

import (
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
)

func run(n int, inputs []amac.Value, cfg Config, sched sim.Scheduler, crashes []sim.Crash) *sim.Result {
	return sim.Run(sim.Config{
		Graph:     graph.Clique(n),
		Inputs:    inputs,
		Factory:   NewFactory(cfg),
		Scheduler: sched,
		Crashes:   crashes,
		MaxEvents: 2_000_000,
	})
}

func TestNoCrashCensus(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		f := (n - 1) / 2
		for mask := 0; mask < 1<<n; mask++ {
			inputs := make([]amac.Value, n)
			for i := range inputs {
				if mask&(1<<i) != 0 {
					inputs[i] = 1
				}
			}
			res := run(n, inputs, Config{N: n, F: f, Seed: int64(mask)}, sim.NewRandom(3, int64(mask)*7+1), nil)
			rep := consensus.Check(inputs, res)
			if !rep.OK() {
				t.Fatalf("n=%d mask=%b: %v", n, mask, rep.Errors)
			}
		}
	}
}

func TestUnanimousDecidesRoundOne(t *testing.T) {
	for _, v := range []amac.Value{0, 1} {
		n := 5
		inputs := []amac.Value{v, v, v, v, v}
		res := run(n, inputs, Config{N: n, F: 2, Seed: 1}, sim.Synchronous{}, nil)
		rep := consensus.Check(inputs, res)
		if !rep.OK() || rep.Value != v {
			t.Fatalf("unanimous %d: %v value=%d", v, rep.Errors, rep.Value)
		}
		// Round 1 under the synchronous scheduler: report at t=1,
		// proposal at t=2, decide flood at t=3.
		if res.MaxDecideTime > 4 {
			t.Fatalf("unanimous decision at t=%d, want within one round", res.MaxDecideTime)
		}
	}
}

// TestCrashToleranceCircumventsThm32 is the extension's reason to exist:
// under crash failures — which freeze every deterministic algorithm on
// some schedule (Theorem 3.2) — the randomized algorithm keeps
// terminating, with safety unconditional.
func TestCrashToleranceCircumventsThm32(t *testing.T) {
	n := 5
	f := 2
	for seed := int64(0); seed < 12; seed++ {
		inputs := []amac.Value{0, 1, 0, 1, 1}
		crashes := []sim.Crash{
			{Node: int(seed) % n, At: 1 + seed%5},
			{Node: (int(seed) + 2) % n, At: 3 + seed%7},
		}
		res := run(n, inputs, Config{N: n, F: f, Seed: seed}, sim.NewRandom(4, seed*13+5), crashes)
		rep := consensus.Check(inputs, res)
		if !rep.OK() {
			t.Fatalf("seed %d: %v", seed, rep.Errors)
		}
		if res.Cutoff {
			t.Fatalf("seed %d: run hit the event cap without deciding", seed)
		}
	}
}

// TestAdversarialSerialization runs the coin-dependent path under the
// edge-order adversary.
func TestAdversarialSerialization(t *testing.T) {
	n := 7
	inputs := []amac.Value{0, 1, 0, 1, 0, 1, 0}
	res := run(n, inputs, Config{N: n, F: 3, Seed: 3}, &sim.EdgeOrder{MaxDegree: n}, nil)
	rep := consensus.Check(inputs, res)
	if !rep.OK() {
		t.Fatalf("%v", rep.Errors)
	}
}

func TestSingleNode(t *testing.T) {
	inputs := []amac.Value{1}
	res := run(1, inputs, Config{N: 1, F: 0, Seed: 1}, sim.Synchronous{}, nil)
	rep := consensus.Check(inputs, res)
	if !rep.OK() || rep.Value != 1 {
		t.Fatalf("single node: %v", rep.Errors)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewFactory(Config{N: 3, F: 1})(amac.NodeConfig{Input: 2}) },
		func() { NewFactory(Config{N: 3, F: 2}) }, // n < 2f+1
		func() { NewFactory(Config{N: 0, F: 0}) },
		func() { NewFactory(Config{N: 3, F: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMessageIDCounts(t *testing.T) {
	if (Report{}).IDCount() != 1 || (Proposal{}).IDCount() != 1 || (Decide{}).IDCount() != 0 {
		t.Fatal("message id counts")
	}
}

func TestDeterministicGivenSeeds(t *testing.T) {
	n := 5
	inputs := []amac.Value{0, 1, 1, 0, 1}
	a := run(n, inputs, Config{N: n, F: 2, Seed: 9}, sim.NewRandom(3, 11), nil)
	b := run(n, inputs, Config{N: n, F: 2, Seed: 9}, sim.NewRandom(3, 11), nil)
	if a.Events != b.Events || a.MaxDecideTime != b.MaxDecideTime {
		t.Fatalf("same seeds diverged: %d/%d vs %d/%d", a.Events, a.MaxDecideTime, b.Events, b.MaxDecideTime)
	}
}
