package gatherall

import (
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
)

func mixed(n int) []amac.Value {
	inputs := make([]amac.Value, n)
	for i := range inputs {
		inputs[i] = amac.Value((i + 1) % 2)
	}
	return inputs
}

func TestCorrectAcrossTopologies(t *testing.T) {
	cases := []*graph.Graph{
		graph.Clique(6),
		graph.Line(7),
		graph.Ring(8),
		graph.Grid(3, 3),
		graph.StarOfLines(3, 2),
		graph.RandomConnected(12, 0.2, 3),
	}
	for i, g := range cases {
		inputs := mixed(g.N())
		for seed := int64(0); seed < 3; seed++ {
			res := sim.Run(sim.Config{
				Graph:           g,
				Inputs:          inputs,
				Factory:         NewFactory(g.N()),
				Scheduler:       sim.NewRandom(3, seed),
				StopWhenDecided: true,
			})
			rep := consensus.Check(inputs, res)
			if !rep.OK() {
				t.Fatalf("case %d seed %d: %v", i, seed, rep.Errors)
			}
			// Gather-all decides the minimum value.
			if rep.Value != 0 {
				t.Fatalf("case %d: decided %d, want min 0", i, rep.Value)
			}
		}
	}
}

func TestUnanimousOne(t *testing.T) {
	g := graph.Line(5)
	inputs := []amac.Value{1, 1, 1, 1, 1}
	res := sim.Run(sim.Config{
		Graph:           g,
		Inputs:          inputs,
		Factory:         NewFactory(5),
		Scheduler:       sim.Synchronous{},
		StopWhenDecided: true,
	})
	rep := consensus.Check(inputs, res)
	if !rep.OK() || rep.Value != 1 {
		t.Fatalf("report %+v %v", rep, rep.Errors)
	}
}

func TestSingleNode(t *testing.T) {
	inputs := []amac.Value{1}
	res := sim.Run(sim.Config{
		Graph:           graph.Clique(1),
		Inputs:          inputs,
		Factory:         NewFactory(1),
		Scheduler:       sim.Synchronous{},
		StopWhenDecided: true,
	})
	rep := consensus.Check(inputs, res)
	if !rep.OK() || rep.Value != 1 {
		t.Fatalf("single node: %+v %v", rep, rep.Errors)
	}
}

// TestBottleneckLinearInN measures the Theta(n) hub backlog on a
// star-of-lines: decision time grows with n at fixed diameter.
func TestBottleneckLinearInN(t *testing.T) {
	timeFor := func(arms int) int64 {
		g := graph.StarOfLines(arms, 2) // diameter 4 regardless of arms
		inputs := mixed(g.N())
		res := sim.Run(sim.Config{
			Graph:           g,
			Inputs:          inputs,
			Factory:         NewFactory(g.N()),
			Scheduler:       sim.Synchronous{},
			StopWhenDecided: true,
		})
		rep := consensus.Check(inputs, res)
		if !rep.OK() {
			t.Fatalf("arms=%d: %v", arms, rep.Errors)
		}
		return res.MaxDecideTime
	}
	t8, t32 := timeFor(8), timeFor(32)
	// 4x the nodes should cost roughly 4x the time through the hub; we
	// assert at least 2.5x to leave slack for constants.
	if float64(t32) < 2.5*float64(t8) {
		t.Fatalf("decision times t8=%d t32=%d: hub backlog not visible", t8, t32)
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFactory(0)
}
