// Package waitall implements the natural n-oblivious consensus attempt
// that the paper's Figure 2 construction defeats (Section 3.3): with
// unique ids and a known diameter bound — but no knowledge of the network
// size — gather (id, value) pairs for a fixed budget of broadcast rounds,
// then decide the minimum value collected.
//
// The algorithm is correct whenever the round budget lets every pair reach
// every node (for example under the synchronous scheduler on a line L_d,
// matching Lemma 3.8's alpha executions). Theorem 3.9 says no n-oblivious
// algorithm can be correct on all networks of a known diameter: the
// experiment in internal/lowerbound runs it on K_D with the hub silenced
// and exhibits the split-brain, while gatherall (which knows n) stays
// correct on the same network under the same scheduler.
package waitall

import (
	"fmt"

	"github.com/absmac/absmac/internal/amac"
)

// PairMsg floods one (id, value) pair, or acts as a heartbeat when the
// sender has nothing new to forward (Heartbeat true).
type PairMsg struct {
	ID        amac.NodeID
	V         amac.Value
	Heartbeat bool
}

// IDCount implements amac.Message.
func (m PairMsg) IDCount() int {
	if m.Heartbeat {
		return 0
	}
	return 1
}

// Node is the per-node state machine.
type Node struct {
	api    amac.API
	rounds int
	input  amac.Value

	known    map[amac.NodeID]amac.Value
	queue    []PairMsg
	acks     int
	decided  bool
	decision amac.Value
}

// RoundsForDiameter returns the canonical round budget for a diameter
// bound: enough cycles for every pair to traverse the network one
// broadcast at a time on the worst supported instances (pairs queue behind
// each other, hence the multiplicative slack).
func RoundsForDiameter(diam int) int {
	if diam < 1 {
		diam = 1
	}
	return 6 * (diam + 1)
}

// NewFactory returns a factory of wait-all nodes with the given round
// budget (derived from a diameter bound via RoundsForDiameter; the
// algorithm must not know n).
func NewFactory(rounds int) amac.Factory {
	if rounds < 1 {
		panic(fmt.Sprintf("waitall: invalid round budget %d", rounds))
	}
	return func(cfg amac.NodeConfig) amac.Algorithm {
		// A node the engine hands back is re-armed in place.
		a, ok := cfg.Prev.(*Node)
		if !ok {
			a = &Node{known: make(map[amac.NodeID]amac.Value)}
		}
		clear(a.known)
		*a = Node{rounds: rounds, input: cfg.Input, known: a.known, queue: amac.Reuse(a.queue)}
		return a
	}
}

// Start implements amac.Algorithm.
func (a *Node) Start(api amac.API) {
	a.api = api
	a.learn(PairMsg{ID: api.ID(), V: a.input})
	a.broadcastNext()
}

// OnReceive implements amac.Algorithm.
func (a *Node) OnReceive(m amac.Message) {
	pair, ok := m.(PairMsg)
	if !ok {
		panic(fmt.Sprintf("waitall: unexpected message type %T", m))
	}
	if !pair.Heartbeat {
		a.learn(pair)
	}
}

// OnAck implements amac.Algorithm.
func (a *Node) OnAck(amac.Message) {
	a.acks++
	if a.acks >= a.rounds {
		if !a.decided {
			a.decided = true
			a.decision = a.minKnown()
			a.api.Decide(a.decision)
		}
		return
	}
	a.broadcastNext()
}

func (a *Node) learn(p PairMsg) {
	if _, seen := a.known[p.ID]; seen {
		return
	}
	a.known[p.ID] = p.V
	a.queue = append(a.queue, PairMsg{ID: p.ID, V: p.V})
}

func (a *Node) minKnown() amac.Value {
	first := true
	var min amac.Value
	for _, v := range a.known {
		if first || v < min {
			min = v
			first = false
		}
	}
	return min
}

// broadcastNext sends the next queued pair, or a heartbeat to keep the
// round count advancing when nothing is pending.
func (a *Node) broadcastNext() {
	if len(a.queue) > 0 {
		m := a.queue[0]
		a.queue = a.queue[1:]
		a.api.Broadcast(m)
		return
	}
	a.api.Broadcast(PairMsg{Heartbeat: true})
}

// Inspect implements amac.Inspector.
func (a *Node) Inspect() amac.View { return amac.DecisionView(a.decided, a.decision) }

var (
	_ amac.Algorithm = (*Node)(nil)
	_ amac.Inspector = (*Node)(nil)
	_ amac.Message   = PairMsg{}
)
