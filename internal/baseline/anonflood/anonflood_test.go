package anonflood

import (
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
)

func TestCorrectUnderSynchronousScheduler(t *testing.T) {
	cases := []*graph.Graph{
		graph.Clique(5),
		graph.Line(6),
		graph.Ring(7),
		graph.Grid(3, 3),
	}
	for i, g := range cases {
		rounds := RoundsForDiameter(g.Diameter())
		for mask := 0; mask < 4; mask++ {
			inputs := make([]amac.Value, g.N())
			for j := range inputs {
				inputs[j] = amac.Value((j + mask) % 2)
			}
			res := sim.Run(sim.Config{
				Graph:     g,
				Inputs:    inputs,
				Factory:   NewFactory(rounds),
				Scheduler: sim.Synchronous{},
			})
			rep := consensus.Check(inputs, res)
			if !rep.OK() {
				t.Fatalf("case %d mask %d: %v", i, mask, rep.Errors)
			}
			if rep.Value != 0 {
				t.Fatalf("case %d: decided %d, want min 0", i, rep.Value)
			}
		}
	}
}

func TestGenuinelyAnonymous(t *testing.T) {
	g := graph.Ring(6)
	inputs := make([]amac.Value, 6)
	inputs[3] = 1
	factory, reads := consensus.AnonymityAudit(NewFactory(RoundsForDiameter(g.Diameter())))
	res := sim.Run(sim.Config{
		Graph:     g,
		Inputs:    inputs,
		Factory:   factory,
		Scheduler: sim.Synchronous{},
	})
	rep := consensus.Check(inputs, res)
	if !rep.OK() {
		t.Fatalf("%v", rep.Errors)
	}
	if reads.Load() != 0 {
		t.Fatalf("anonymous algorithm read its id %d times", reads.Load())
	}
}

func TestMessagesCarryNoIDs(t *testing.T) {
	if (SetMsg{Has0: true, Has1: true}).IDCount() != 0 {
		t.Fatal("anonymous message claims to carry ids")
	}
}

func TestRoundsForDiameter(t *testing.T) {
	if RoundsForDiameter(0) != 4 {
		t.Fatalf("RoundsForDiameter(0) = %d", RoundsForDiameter(0))
	}
	if RoundsForDiameter(5) != 12 {
		t.Fatalf("RoundsForDiameter(5) = %d", RoundsForDiameter(5))
	}
}

func TestDecisionUsesRoundBudget(t *testing.T) {
	g := graph.Line(4)
	inputs := make([]amac.Value, 4)
	rounds := RoundsForDiameter(g.Diameter())
	res := sim.Run(sim.Config{
		Graph:     g,
		Inputs:    inputs,
		Factory:   NewFactory(rounds),
		Scheduler: sim.Synchronous{},
	})
	// Under the synchronous scheduler each round takes one time unit.
	if res.MaxDecideTime != int64(rounds) {
		t.Fatalf("decision at %d, want round budget %d", res.MaxDecideTime, rounds)
	}
}

func TestPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewFactory(4)(amac.NodeConfig{Input: 2}) },
		func() { NewFactory(0) },
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
