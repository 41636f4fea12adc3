// Package exp contains the experiment drivers: one function per
// experiment (E1..E12, listed in Index), each reproducing one of the
// paper's theorems, figures, or complexity claims as a measured table
// plus a pass/fail shape check. The drivers are shared by `amacsim
// -claims` (which regenerates the full report) and this package's tests
// (one per experiment).
//
// E1 runs internal/lowerbound's valid-step explorer. Every simulated run —
// E2–E4's impossibility constructions and their controls, and E5–E12 —
// is a harness.Scenario run by the harness executor: the
// experiments that read only aggregates sweep a harness.Grid, the ones
// that read a node's amac.View or a Lemma 4.2 audit execute one scenario
// at a time. Either way each run's Outcome.Scenario replays it.
package exp

import (
	"fmt"
	"strings"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/stats"
)

// Experiment is one reproduced result.
type Experiment struct {
	// ID is the experiment's index entry, e.g. "E5".
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

// fail fails the shape check with a note saying why.
func (e *Experiment) fail(format string, args ...any) {
	e.OK = false
	e.Notes = append(e.Notes, fmt.Sprintf(format, args...))
}

// checkCells fails the shape check for every cell with a run that
// violated consensus.
func (e *Experiment) checkCells(cells []harness.Cell) {
	for _, c := range cells {
		if !c.OK() {
			e.fail("%s on %s: %d of %d runs correct: %v", c.Algo, c.Topo, c.Correct, c.Runs, c.Errors)
		}
	}
}

// Driver is one entry of the index: an experiment's ID and the function
// that runs it.
type Driver struct {
	ID  string
	Run func() *Experiment
}

// Index lists every experiment in order. It is the driver behind `amacsim
// -claims`, which runs the whole list (-claims all) or one entry.
var Index = []Driver{
	{"E1", E1FLP},
	{"E2", E2Anonymous},
	{"E3", E3SizeKnowledge},
	{"E4", E4TimeLowerBound},
	{"E5", E5TwoPhase},
	{"E6", E6WPaxos},
	{"E7", E7FloodingBaseline},
	{"E8", E8TagGrowth},
	{"E9", E9AggregationAudit},
	{"E10", E10UnknownParticipants},
	{"E11", E11UnreliableLinks},
	{"E12", E12Randomization},
}

// sweep runs g on the harness worker pool and returns its cells in the
// grid's axis-nesting order (algorithm outermost, seeds folded in).
func sweep(g harness.Grid) ([]harness.Cell, error) {
	work, err := g.Cells()
	if err != nil {
		return nil, err
	}
	return harness.SweepCellsOpts(work, harness.SweepOptions{})
}

// run executes one scenario on the harness executor and returns, beside
// its outcome, every node's amac.View as the run left it. A non-nil audit
// builds the wpaxos scenario's nodes with that Lemma 4.2 instrument. Both
// only observe the run, so the outcome's Scenario still replays it.
func run(s harness.Scenario, audit *wpaxos.CountAudit) (*harness.Outcome, []amac.View, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, nil, err
	}
	build := cfg.Factory
	if audit != nil {
		build = wpaxos.NewFactory(wpaxos.Config{N: cfg.Graph.N(), Audit: audit})
	}
	var nodes []amac.Inspector
	cfg.Factory = func(nc amac.NodeConfig) amac.Algorithm {
		a := build(nc)
		nodes = append(nodes, a.(amac.Inspector))
		return a
	}
	out, _, _, err := harness.Execute(s, cfg, harness.Exec{})
	if err != nil {
		return nil, nil, err
	}
	views := make([]amac.View, len(nodes))
	for i, nd := range nodes {
		views[i] = nd.Inspect()
	}
	return out, views, nil
}

// seedRange returns the seeds 0..n-1.
func seedRange(n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	return seeds
}

// cliques returns the topologies clique:n for each n.
func cliques(ns ...int) []harness.Topo {
	topos := make([]harness.Topo, len(ns))
	for i, n := range ns {
		topos[i] = harness.Topo{Kind: "clique", N: n}
	}
	return topos
}

func boolMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
