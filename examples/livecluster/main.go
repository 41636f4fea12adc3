// Livecluster: the same consensus state machines that run on the simulator
// run here on the wall-clock runtime (every node a goroutine) over its two
// MACs — real timers, and loopback UDP sockets (messages gob-encoded,
// reliability by retransmission). This is the paper's deployability claim in
// action: the algorithms are unchanged, only the substrate differs.
//
// Run with:
//
//	go run ./examples/livecluster
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/core/twophase"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/live"
	"github.com/absmac/absmac/internal/netmac"
)

func main() { os.Exit(run(os.Stdout, os.Stderr)) }

// run executes the four runs and returns the exit code: 0 when every run
// reaches consensus, 1 when one does not, 2 when one fails to run.
func run(stdout, stderr io.Writer) int {
	code := 0
	runTimers := func(name string, g *graph.Graph, factory amac.Factory, inputs []amac.Value) {
		res, err := live.Run(context.Background(), live.Config{
			Graph:   g,
			Inputs:  inputs,
			Factory: factory,
			Fack:    3 * time.Millisecond,
			Seed:    time.Now().UnixNano(),
			Timeout: 20 * time.Second,
		})
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			code = 2
			return
		}
		rep := res.Report(inputs)
		if !rep.OK() {
			code = max(code, 1)
		}
		fmt.Fprintf(stdout, "%-22s n=%-3d decided value %d in %v wall-clock (%d broadcasts); consensus ok: %v\n",
			name, g.N(), rep.Value, res.Elapsed.Round(time.Millisecond), res.Broadcasts, rep.OK())
	}

	// Single-hop cluster: two-phase, which needs no knowledge of n.
	clique := graph.Clique(12)
	inputs := make([]amac.Value, 12)
	for i := range inputs {
		inputs[i] = amac.Value(i % 2)
	}
	runTimers("two-phase on clique", clique, twophase.Factory, inputs)

	// Multihop mesh: wPAXOS across a random connected topology.
	mesh := graph.RandomConnected(20, 0.15, 99)
	meshInputs := make([]amac.Value, 20)
	for i := range meshInputs {
		meshInputs[i] = amac.Value((i / 3) % 2)
	}
	runTimers("wPAXOS on random mesh", mesh, wpaxos.NewFactory(wpaxos.Config{N: 20}), meshInputs)

	// A long line: the O(D*Fack) shape is visible in wall-clock time.
	line := graph.Line(24)
	lineInputs := make([]amac.Value, 24)
	for i := 12; i < 24; i++ {
		lineInputs[i] = 1
	}
	runTimers("wPAXOS on 24-node line", line, wpaxos.NewFactory(wpaxos.Config{N: 24}), lineInputs)

	// The same algorithms over real UDP sockets on loopback: gob on the
	// wire, reliability by retransmission, Fack emergent.
	netmac.RegisterMessages(twophase.Phase1{}, twophase.Phase2{}, &wpaxos.Combined{})
	udpGraph := graph.Grid(3, 4)
	udpInputs := make([]amac.Value, udpGraph.N())
	for i := range udpInputs {
		udpInputs[i] = amac.Value(i % 2)
	}
	udpRes, err := netmac.Run(context.Background(), live.Config{
		Graph:   udpGraph,
		Inputs:  udpInputs,
		Factory: wpaxos.NewFactory(wpaxos.Config{N: udpGraph.N()}),
	}, 2*time.Millisecond)
	if err != nil {
		fmt.Fprintf(stderr, "udp: %v\n", err)
		return 2
	}
	udpRep := udpRes.Report(udpInputs)
	if !udpRep.OK() {
		code = max(code, 1)
	}
	fmt.Fprintf(stdout, "%-22s n=%-3d decided value %d in %v over UDP (%d packets, %d bytes, %d retransmits); consensus ok: %v\n",
		"wPAXOS over UDP grid", udpGraph.N(), udpRep.Value, udpRes.Elapsed.Round(time.Millisecond),
		udpRes.PacketsSent, udpRes.BytesSent, udpRes.Retransmits, udpRep.OK())
	return code
}
