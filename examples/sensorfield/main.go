// Sensorfield: a 6x6 grid of wireless sensors must agree on a binary
// actuation decision (e.g. "raise the alarm") using wPAXOS — the paper's
// multihop algorithm — while a cluster of sensors with weak radios is 25x
// slower than the rest. wPAXOS only needs a majority of acceptors, so the
// slow minority does not hold up the decision (the reason the paper builds
// on PAXOS rather than gathering all values).
//
// Run with:
//
//	go run ./examples/sensorfield
package main

import (
	"fmt"
	"io"
	"os"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sensorfield:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	const rows, cols = 6, 6
	g := graph.Grid(rows, cols)
	n := g.N()

	// A third of the field detected the event and proposes 1.
	inputs := make([]amac.Value, n)
	for i := 0; i < n; i += 3 {
		inputs[i] = 1
	}

	// The bottom-left 3x3 corner has weak radios: everything those nodes
	// send is delayed 25x (still within the scheduler's declared Fack).
	slow := map[int]bool{}
	for r := 3; r < 6; r++ {
		for c := 0; c < 3; c++ {
			slow[r*cols+c] = true
		}
	}
	sched := sim.SlowSubset{
		Base:   sim.NewRandom(4, 7),
		Slow:   slow,
		Factor: 25,
	}

	audit := wpaxos.NewCountAudit()
	var nodes []amac.Inspector
	build := wpaxos.NewFactory(wpaxos.Config{N: n, Audit: audit})
	factory := func(nc amac.NodeConfig) amac.Algorithm {
		a := build(nc)
		nodes = append(nodes, a.(amac.Inspector))
		return a
	}

	res := sim.Run(sim.Config{
		Graph:     g,
		Inputs:    inputs,
		Factory:   factory,
		Scheduler: sched,
	})
	rep := consensus.Check(inputs, res)

	fmt.Fprintf(w, "grid %dx%d (diameter %d), %d slow sensors (25x delays)\n", rows, cols, g.Diameter(), len(slow))
	fmt.Fprintf(w, "all decided:   %v, value %d\n", rep.Termination, rep.Value)
	fmt.Fprintf(w, "consensus:     agreement=%v validity=%v termination=%v\n", rep.Agreement, rep.Validity, rep.Termination)
	fmt.Fprintf(w, "aggregation:   %d propositions audited, %d Lemma 4.2 violations\n",
		audit.Propositions(), len(audit.Violations()))

	// How fast did the healthy majority decide, versus the field total?
	fastest := res.MaxDecideTime
	var slowest int64
	for i, t := range res.DecideTime {
		if !res.Decided[i] {
			continue
		}
		if !slow[i] && t < fastest {
			fastest = t
		}
		if t > slowest {
			slowest = t
		}
	}
	fmt.Fprintf(w, "decide times:  healthy majority first at t=%d, whole field done by t=%d\n", fastest, slowest)
	fmt.Fprintf(w, "leader:        node id %d (max id wins the election)\n", nodes[0].Inspect().Omega)
	if !rep.OK() {
		return fmt.Errorf("consensus failed: %v", rep.Errors)
	}
	return nil
}
