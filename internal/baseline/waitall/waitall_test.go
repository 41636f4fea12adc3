package waitall

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
		graph.Line(5),
		graph.Line(9),
		graph.Ring(8),
		graph.Grid(3, 3),
	}
	for i, g := range cases {
		rounds := RoundsForDiameter(g.Diameter())
		inputs := make([]amac.Value, g.N())
		for j := range inputs {
			inputs[j] = amac.Value(j % 2)
		}
		res := sim.Run(sim.Config{
			Graph:           g,
			Inputs:          inputs,
			Factory:         NewFactory(rounds),
			Scheduler:       sim.Synchronous{},
			StopWhenDecided: true,
		})
		rep := consensus.Check(inputs, res)
		if !rep.OK() {
			t.Fatalf("case %d: %v", i, rep.Errors)
		}
		if rep.Value != 0 {
			t.Fatalf("case %d: decided %d, want min 0", i, rep.Value)
		}
	}
}

func TestHeartbeatsCarryNoIDs(t *testing.T) {
	if (PairMsg{Heartbeat: true}).IDCount() != 0 {
		t.Fatal("heartbeat claims ids")
	}
	if (PairMsg{ID: 3}).IDCount() != 1 {
		t.Fatal("pair should carry one id")
	}
}

func TestUnanimous(t *testing.T) {
	g := graph.Line(6)
	inputs := []amac.Value{1, 1, 1, 1, 1, 1}
	res := sim.Run(sim.Config{
		Graph:           g,
		Inputs:          inputs,
		Factory:         NewFactory(RoundsForDiameter(g.Diameter())),
		Scheduler:       sim.Synchronous{},
		StopWhenDecided: true,
	})
	rep := consensus.Check(inputs, res)
	if !rep.OK() || rep.Value != 1 {
		t.Fatalf("report %+v %v", rep, rep.Errors)
	}
}

func TestRoundBudgetIsOblivousToN(t *testing.T) {
	// The same factory (round budget from the diameter alone) must work
	// on lines of very different sizes with the same diameter bound: the
	// algorithm must not secretly depend on n.
	for _, n := range []int{3, 5, 7} {
		g := graph.Line(n)
		rounds := RoundsForDiameter(6) // bound covering all three lines
		inputs := make([]amac.Value, n)
		inputs[n-1] = 1
		res := sim.Run(sim.Config{
			Graph:           g,
			Inputs:          inputs,
			Factory:         NewFactory(rounds),
			Scheduler:       sim.Synchronous{},
			StopWhenDecided: true,
		})
		rep := consensus.Check(inputs, res)
		if !rep.OK() {
			t.Fatalf("n=%d: %v", n, rep.Errors)
		}
	}
}

func TestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFactory(0)
}
