package lowerbound

import (
	"fmt"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
)

// Hasty is a deliberately premature consensus attempt used to exhibit the
// Theorem 3.10 partition argument: it gossips values for a fixed number of
// ack cycles and then decides the minimum value seen. With a budget of k
// cycles it decides by time k*Fack — so with k < floor(D/2) it decides
// before information can have crossed half the line, and the partition
// harness makes it pay with an agreement violation.
type Hasty struct {
	api    amac.API
	cycles int

	has0, has1 bool
	acks       int
	decided    bool
	decision   amac.Value
}

// HastyMsg carries the gossiped value set (no ids needed).
type HastyMsg struct {
	Has0, Has1 bool
}

// IDCount implements amac.Message.
func (HastyMsg) IDCount() int { return 0 }

// NewHastyFactory returns a factory of hasty nodes with a fixed cycle budget.
func NewHastyFactory(cycles int) amac.Factory {
	if cycles < 1 {
		panic(fmt.Sprintf("lowerbound: invalid hasty cycle budget %d", cycles))
	}
	return func(cfg amac.NodeConfig) amac.Algorithm {
		return &Hasty{cycles: cycles, has0: cfg.Input == 0, has1: cfg.Input == 1}
	}
}

// Start implements amac.Algorithm.
func (a *Hasty) Start(api amac.API) {
	a.api = api
	api.Broadcast(HastyMsg{Has0: a.has0, Has1: a.has1})
}

// OnReceive implements amac.Algorithm.
func (a *Hasty) OnReceive(m amac.Message) {
	msg, ok := m.(HastyMsg)
	if !ok {
		panic(fmt.Sprintf("lowerbound: unexpected message type %T", m))
	}
	a.has0 = a.has0 || msg.Has0
	a.has1 = a.has1 || msg.Has1
}

// OnAck implements amac.Algorithm.
func (a *Hasty) OnAck(amac.Message) {
	a.acks++
	if a.acks < a.cycles {
		a.api.Broadcast(HastyMsg{Has0: a.has0, Has1: a.has1})
		return
	}
	if !a.decided {
		a.decided = true
		if a.has0 {
			a.decision = 0
		} else {
			a.decision = 1
		}
		a.api.Decide(a.decision)
	}
}

// Inspect implements amac.Inspector.
func (a *Hasty) Inspect() amac.View { return amac.DecisionView(a.decided, a.decision) }

var (
	_ amac.Algorithm = (*Hasty)(nil)
	_ amac.Inspector = (*Hasty)(nil)
	_ amac.Message   = HastyMsg{}
)

// PartitionResult reports one run of the Theorem 3.10 partition harness.
type PartitionResult struct {
	// D is the line diameter, Fack the scheduler bound.
	D    int
	Fack int64
	// Bound is the theorem's floor(D/2)*Fack threshold.
	Bound int64
	// HastyDecideTime is when the premature algorithm decided (its
	// budget times Fack) — strictly below Bound by construction.
	HastyDecideTime int64
	// HastyViolated reports the resulting agreement violation.
	HastyViolated bool
}

// RunPartition executes the Theorem 3.10 harness on a line of diameter D
// (D >= 2) under the maximum-delay scheduler: half the line starts with 0,
// half with 1, and a hasty algorithm deciding before floor(D/2)*Fack
// splits. (Correct algorithms' decision times are measured against the
// same bound by experiment E4.)
func RunPartition(D int, fack int64) (*PartitionResult, error) {
	if D < 2 {
		return nil, fmt.Errorf("lowerbound: partition harness needs D >= 2, got %d", D)
	}
	if fack < 1 {
		return nil, fmt.Errorf("lowerbound: invalid Fack %d", fack)
	}
	n := D + 1
	inputs := make([]amac.Value, n)
	for i := n / 2; i < n; i++ {
		inputs[i] = 1
	}
	cycles := D / 2
	if cycles < 1 {
		cycles = 1
	}
	// Decide strictly before the bound: floor(D/2) cycles of exactly
	// Fack each would land on the bound itself, so use one fewer when
	// possible.
	if cycles > 1 {
		cycles--
	}
	res := sim.Run(sim.Config{
		Graph:           graph.Line(n),
		Inputs:          inputs,
		Factory:         NewHastyFactory(cycles),
		Scheduler:       sim.MaxDelay{F: fack},
		StopWhenDecided: true,
	})
	rep := consensus.Check(inputs, res)
	out := &PartitionResult{
		D:               D,
		Fack:            fack,
		Bound:           int64(D/2) * fack,
		HastyDecideTime: res.MaxDecideTime,
		HastyViolated:   !rep.Agreement,
	}
	return out, nil
}
