// Package exp contains the experiment drivers: one function per
// experiment (E1..E12, indexed by All), each reproducing one of the
// paper's theorems, figures, or complexity claims as a measured table
// plus a pass/fail shape check. The drivers are shared by cmd/benchsuite
// (which regenerates the full report) and this package's tests (one per
// experiment).
package exp

import (
	"fmt"
	"strings"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/stats"
)

// Experiment is one reproduced result.
type Experiment struct {
	// ID is the experiment's index in All, e.g. "E5".
	ID string
	// Title names the experiment.
	Title string
	// Claim quotes the paper's claim being checked.
	Claim string
	// Table holds the measured rows.
	Table *stats.Table
	// Notes carries derived observations (fit slopes, envelopes, ...).
	Notes []string
	// OK reports whether the shape check passed.
	OK bool
}

// Render returns a human-readable report section.
func (e *Experiment) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", e.ID, e.Title)
	fmt.Fprintf(&b, "paper claim: %s\n", e.Claim)
	status := "PASS"
	if !e.OK {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "shape check: %s\n\n", status)
	b.WriteString(e.Table.Render())
	for _, n := range e.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// All runs every experiment in order. It is the driver behind
// cmd/benchsuite.
func All() []*Experiment {
	return []*Experiment{
		E1FLP(),
		E2Anonymous(),
		E3SizeKnowledge(),
		E4TimeLowerBound(),
		E5TwoPhase(),
		E6WPaxos(),
		E7FloodingBaseline(),
		E8TagGrowth(),
		E9AggregationAudit(),
		E10UnknownParticipants(),
		E11UnreliableLinks(),
		E12Randomization(),
	}
}

// mixedInputs returns the canonical alternating 0/1 assignment.
func mixedInputs(n int) []amac.Value {
	inputs := make([]amac.Value, n)
	for i := range inputs {
		inputs[i] = amac.Value(i % 2)
	}
	return inputs
}

func boolMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
