// Quickstart: solve consensus on an 8-node single-hop network with the
// paper's two-phase algorithm (Algorithm 1), on the deterministic
// simulator, under a randomized message scheduler.
//
// The scenario is assembled by internal/harness — the same named
// registries behind cmd/amacsim — so this example stays in lockstep with
// the CLI: `amacsim -algo twophase -topo clique:8 -sched random -fack 10
// -seed 42 -inputs half` runs the same execution.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"github.com/absmac/absmac/internal/explore"
	"github.com/absmac/absmac/internal/harness"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const n = 8
	sc := harness.Scenario{
		Algo: "twophase", // no knowledge of n required!
		Topo: harness.Topo{Kind: "clique", N: n},
		// Initial values: the first half of the nodes propose 0, the rest 1.
		Inputs: "half",
		// The scheduler is the adversary: deliveries and acks land at
		// arbitrary times within Fack=10 of each broadcast.
		Sched: "random",
		Fack:  10,
		Seed:  42,
	}
	out, err := sc.Run()
	if err != nil {
		return err
	}

	res, rep := out.Result, out.Report
	fmt.Fprintf(w, "inputs:       %s\n", sc.Inputs)
	fmt.Fprintf(w, "all decided:  %v\n", rep.Termination)
	fmt.Fprintf(w, "agreed value: %d\n", rep.Value)
	fmt.Fprintf(w, "decide time:  %d (Fack=10; Theorem 4.1 promises O(Fack))\n", res.MaxDecideTime)
	fmt.Fprintf(w, "agreement=%v validity=%v termination=%v\n", rep.Agreement, rep.Validity, rep.Termination)

	// One execution is an anecdote; the harness measures distributions.
	// A Grid expands to cell work-units — here a single cell whose seeds
	// 1..32 replicate the scenario above — and SweepCellsOpts runs each cell's
	// seeds back to back on a reusable engine, aggregating latency and
	// message statistics. (This is the same path behind `amacsim -sweep`.)
	seeds := make([]int64, 32)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	work, err := harness.Grid{
		Algos:  []string{"twophase"},
		Topos:  []harness.Topo{{Kind: "clique", N: n}},
		Scheds: []string{"random"},
		Facks:  []int64{10},
		Inputs: []string{"half"},
		Seeds:  seeds,
	}.Cells()
	if err != nil {
		return err
	}
	cells, err := harness.SweepCellsOpts(work, harness.SweepOptions{})
	if err != nil {
		return err
	}
	c := cells[0]
	fmt.Fprintf(w, "\nacross %d seeds of the same cell: correct %d/%d, decide time median %.0f p95 %.0f (x Fack: %.2f)\n",
		len(seeds), c.Correct, c.Runs, c.Decide.Median, c.Decide.P95, c.DecidePerFack)

	// Every run is also recordable: RunRecorded captures the scheduler's
	// every decision into a Schedule that replays byte-identically — and
	// perturbs. Here we swap the delivery order of the very first
	// broadcast and replay; any execution within the Fack bound must still
	// satisfy the consensus properties. (`amacsim -explore` automates
	// this search and minimizes what it finds; see internal/explore.)
	recorded, schedule, err := sc.RunRecorded()
	if err != nil {
		return err
	}
	perturbed := schedule.Clone()
	swapped := false
	for k := 0; k < len(perturbed.Steps) && !swapped; k++ {
		// SwapRecv refuses no-op swaps (equal times, single recipient);
		// find the first step where the reordering is real.
		swapped = perturbed.SwapRecv(k, 0, 1)
	}
	if !swapped {
		return errors.New("no step had two distinct delivery times to swap")
	}
	runner, err := sc.NewReplayRunner()
	if err != nil {
		return err
	}
	replayed, rp, err := runner.Run(perturbed, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nrecorded %d broadcast decisions (decide time %d); perturbed replay (diverged=%v) still correct: %v (decide time %d)\n",
		len(schedule.Steps), recorded.Result.MaxDecideTime, rp.Diverged(), replayed.Report.OK(), replayed.Result.MaxDecideTime)

	// Act 4 — sweep → campaign → minimized artifact. A campaign composes
	// the two pipelines above: sweep a whole grid, stream every violating
	// (scenario, seed) out of the cell workers, and delta-debug one
	// flagged run per cell into a minimal replayable counterexample. This
	// grid pairs the canonical violating cell — two-phase consensus losing
	// its coordinator, the paper's Theorem 3.2 counterexample: every
	// witness strands forever — with wPAXOS in the same cell, which
	// survives the crash (its Ω detector rotates to a live proposer; see
	// internal/omega's package comment). (`amacsim -grid` is the CLI face
	// of exactly this call.)
	campaign, err := explore.Campaign(harness.Grid{
		Algos:     []string{"twophase", "wpaxos"},
		Topos:     []harness.Topo{{Kind: "ring", N: 9}},
		Scheds:    []string{"random"},
		Facks:     []int64{4},
		Crashes:   []string{"coordinator"},
		Overlays:  []string{"chords"},
		Seeds:     []int64{1, 2, 3, 4, 5, 6, 7, 8},
		MaxEvents: 200_000,
	}, explore.CampaignOptions{Minimize: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ncampaign over %d cells (%d runs): %d flagged run(s) in %d cell(s)\n",
		len(campaign.Cells), campaign.Runs, campaign.Flagged, campaign.CellsFlagged)
	for i := range campaign.Cells {
		c := &campaign.Cells[i]
		fmt.Fprintf(w, "  %-10s ran %d seeds, flagged %d\n", c.Algo, c.Runs, len(c.Flagged))
	}
	for _, f := range campaign.Findings {
		fmt.Fprintf(w, "  minimized %s counterexample: %s on %s, seed %d -> %d steps, %d deliveries (replayable artifact)\n",
			f.Violation.Kind, f.Scenario.Algo, f.Scenario.Topo, f.Scenario.Seed, f.Steps, f.Deliveries)
	}
	return nil
}
