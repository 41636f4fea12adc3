package lowerbound

import (
	"fmt"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/baseline/anonflood"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
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
// half with 1, and a hasty algorithm — anonflood with a budget of ack
// cycles too small to cross half the line — decides before floor(D/2)*Fack
// and splits. (Correct algorithms' decision times are measured against the
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
		Factory:         anonflood.NewFactory(cycles),
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
