// Package anonflood implements the natural anonymous consensus attempt
// that the paper's Figure 1 construction defeats (Section 3.2): flood the
// set of values seen for a fixed budget of broadcast rounds derived from a
// known diameter bound, then decide the minimum value seen.
//
// The algorithm uses no ids whatsoever — messages carry only a value set —
// and it is correct on every network in which information actually
// traverses the network within the round budget (for example under the
// synchronous scheduler on any graph whose diameter respects the bound).
// Theorem 3.3 says no anonymous algorithm can be correct on all networks:
// the experiment in internal/lowerbound runs this algorithm on network A
// of Figure 1 with the bridge node silenced and exhibits the agreement
// violation, while the same algorithm with the same parameters is correct
// on network B.
package anonflood

import (
	"fmt"

	"github.com/absmac/absmac/internal/amac"
)

// SetMsg carries the sender's current value set. It is anonymous: zero ids.
type SetMsg struct {
	Has0, Has1 bool
}

// IDCount implements amac.Message.
func (SetMsg) IDCount() int { return 0 }

// Node is the per-node state machine.
type Node struct {
	api    amac.API
	rounds int

	has0, has1 bool
	acks       int
	decided    bool
	decision   amac.Value
}

// RoundsForDiameter returns the round budget the algorithm uses for a
// network with the given diameter bound: one hop of spread per round plus
// slack for interleaving.
func RoundsForDiameter(diam int) int {
	if diam < 1 {
		diam = 1
	}
	return 2*diam + 2
}

// NewFactory returns a factory of anonymous flooding nodes that broadcast
// for the given number of rounds (ack cycles), for binary inputs. Callers
// derive rounds from a diameter bound; RoundsForDiameter gives the
// package's canonical choice. Note that the factory ignores cfg.ID: the
// algorithm is anonymous (verified by consensus.AnonymityAudit in the
// experiments).
func NewFactory(rounds int) amac.Factory {
	if rounds < 1 {
		panic(fmt.Sprintf("anonflood: invalid round budget %d", rounds))
	}
	return func(cfg amac.NodeConfig) amac.Algorithm {
		if cfg.Input != 0 && cfg.Input != 1 {
			panic(fmt.Sprintf("anonflood: input %d is not binary", cfg.Input))
		}
		// A node the engine hands back is re-armed in place.
		a, ok := cfg.Prev.(*Node)
		if !ok {
			a = new(Node)
		}
		*a = Node{rounds: rounds, has0: cfg.Input == 0, has1: cfg.Input == 1}
		return a
	}
}

// Start implements amac.Algorithm.
func (a *Node) Start(api amac.API) {
	a.api = api
	api.Broadcast(SetMsg{Has0: a.has0, Has1: a.has1})
}

// OnReceive implements amac.Algorithm.
func (a *Node) OnReceive(m amac.Message) {
	set, ok := m.(SetMsg)
	if !ok {
		panic(fmt.Sprintf("anonflood: unexpected message type %T", m))
	}
	a.has0 = a.has0 || set.Has0
	a.has1 = a.has1 || set.Has1
}

// OnAck implements amac.Algorithm.
func (a *Node) OnAck(amac.Message) {
	a.acks++
	if a.acks < a.rounds {
		a.api.Broadcast(SetMsg{Has0: a.has0, Has1: a.has1})
		return
	}
	if a.decided {
		return
	}
	a.decided = true
	if a.has0 {
		a.decision = 0
	} else {
		a.decision = 1
	}
	a.api.Decide(a.decision)
}

// Inspect implements amac.Inspector.
func (a *Node) Inspect() amac.View { return amac.DecisionView(a.decided, a.decision) }

var (
	_ amac.Algorithm = (*Node)(nil)
	_ amac.Inspector = (*Node)(nil)
	_ amac.Message   = SetMsg{}
)
