package exp

import (
	"fmt"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/core/twophase"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/ext/benor"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
	"github.com/absmac/absmac/internal/stats"
)

// The paper's conclusion names three future-work directions; E11 and E12
// reproduce the two that are implementable today as extensions of the
// model and algorithms (unreliable links; randomization).

// E11UnreliableLinks exercises the dual-graph model variant: reliable
// topology plus an overlay of unreliable edges that deliver at the
// scheduler's whim. wPAXOS's *safety* (agreement, validity, Lemma 4.2
// counting) is untouched by arbitrary extra deliveries. Its fast path is
// not: the tree service can adopt a parent across an unreliable edge, and
// an acceptor response routed over that edge is sent exactly once and may
// be lost. What keeps the run live is the retransmit-until-superseded
// state gossip, which carries the same acceptor state to the proposer by
// another road — so every row must terminate in every run, and a row that
// does not fails the shape check: it is a regression of that fallback, not
// the paper's open question. "Optimizing our multihop upper bound to work
// in the presence of such links ... is left an open question" (Sec 2) is
// about the O(D*Fack) bound, which this table does not measure.
func E11UnreliableLinks() *Experiment {
	e := &Experiment{
		ID:    "E11",
		Claim: "Sec 2/5: the dual-graph abstract MAC layer variant; adapting the multihop upper bound to it is explicitly open",
		Table: &stats.Table{Columns: []string{"topology", "overlay edges", "loss prob", "runs", "safety OK", "Lemma 4.2 OK", "terminated"}},
	}
	e.OK = true
	total, stalled := 0, 0
	cases := []struct {
		name    string
		g       *graph.Graph
		overlay int
	}{
		{"line-12", graph.Line(12), 8},
		{"grid-4x4", graph.Grid(4, 4), 10},
		{"random-16", graph.RandomConnected(16, 0.1, 21), 12},
	}
	for _, tc := range cases {
		for _, p := range []float64{0.2, 0.8} {
			const runs = 4
			safeAll, auditOK := true, true
			terminated := 0
			for seed := int64(0); seed < runs; seed++ {
				overlay := graph.RandomOverlay(tc.g, tc.overlay, seed+50)
				inputs := mixedInputs(tc.g.N())
				audit := wpaxos.NewCountAudit()
				res := sim.Run(sim.Config{
					Graph:           tc.g,
					Unreliable:      overlay,
					Inputs:          inputs,
					Factory:         wpaxos.NewFactory(wpaxos.Config{N: tc.g.N(), Audit: audit}),
					Scheduler:       sim.NewLossy(sim.NewRandom(4, seed*3+1), p, seed*7+2),
					StopWhenDecided: true,
				})
				rep := consensus.Check(inputs, res)
				if !rep.Agreement || (rep.SomeoneDecided && !rep.Validity) {
					safeAll = false
					e.OK = false
				}
				if len(audit.Violations()) != 0 {
					auditOK = false
					e.OK = false
				}
				if rep.Termination {
					terminated++
				}
			}
			total += runs
			stalled += runs - terminated
			e.Table.AddRow(tc.name, tc.overlay, p, runs, boolMark(safeAll), boolMark(auditOK), fmt.Sprintf("%d/%d", terminated, runs))
		}
	}
	// Title and notes are read off the counts; up to here e.OK is safety.
	safety, liveness := "safety holds", "every run terminates"
	if e.OK {
		e.Notes = append(e.Notes, "safety (agreement, validity, response counting) held in every run, whatever the overlay delivered")
	} else {
		safety = "SAFETY VIOLATED"
		e.Notes = append(e.Notes, "safety violated: see the 'safety OK' and 'Lemma 4.2 OK' columns")
	}
	if stalled == 0 {
		e.Notes = append(e.Notes, fmt.Sprintf(
			"liveness: all %d runs terminated — a fast-path response lost on an unreliable edge is sent once, and the sticky state gossip delivers the same acceptor state by another road",
			total))
	} else {
		e.OK = false
		liveness = fmt.Sprintf("%d of %d runs stall", stalled, total)
		e.Notes = append(e.Notes, fmt.Sprintf(
			"liveness: %d of %d runs did not terminate — the state-gossip fallback for responses lost on unreliable edges has regressed",
			stalled, total))
	}
	e.Title = fmt.Sprintf("Extension: unreliable links (dual-graph model) — %s, %s", safety, liveness)
	e.Notes = append(e.Notes, "not measured here: the paper's open question (Sec 2), an O(D*Fack) bound in the presence of such links")
	return e
}

// E12Randomization contrasts the deterministic impossibility (Theorem 3.2)
// with a Ben-Or-style randomized algorithm: under injected crash failures
// the two-phase algorithm stalls on some schedules while the randomized
// one keeps terminating, with safety unconditional for both.
func E12Randomization() *Experiment {
	e := &Experiment{
		ID:    "E12",
		Title: "Extension: randomization circumvents the crash impossibility",
		Claim: "Sec 5 future work: randomized algorithms may circumvent the crash-failure lower bound (Thm 3.2)",
		Table: &stats.Table{Columns: []string{"n", "f", "crash schedules", "two-phase stalls", "Ben-Or decides", "safety violations"}},
	}
	e.OK = true
	for _, tc := range []struct{ n, f int }{{3, 1}, {5, 2}, {7, 3}} {
		const runs = 8
		stalls, decides, unsafe := 0, 0, 0
		for seed := int64(0); seed < runs; seed++ {
			inputs := make([]amac.Value, tc.n)
			for i := range inputs {
				inputs[i] = amac.Value((i + int(seed)) % 2)
			}
			crashes := []sim.Crash{{Node: int(seed) % tc.n, At: 1 + seed%4}}
			if tc.f >= 2 {
				crashes = append(crashes, sim.Crash{Node: (int(seed) + 1) % tc.n, At: 2 + seed%5})
			}
			// Deterministic two-phase under the crash schedule.
			resTP := sim.Run(sim.Config{
				Graph:     graph.Clique(tc.n),
				Inputs:    inputs,
				Factory:   twophase.Factory,
				Scheduler: &sim.EdgeOrder{MaxDegree: tc.n},
				Crashes:   crashes,
			})
			repTP := consensus.Check(inputs, resTP)
			if !repTP.Agreement || (repTP.SomeoneDecided && !repTP.Validity) {
				unsafe++
			}
			if !repTP.Termination {
				stalls++
			}
			// Randomized Ben-Or under the same schedule.
			resBO := sim.Run(sim.Config{
				Graph:           graph.Clique(tc.n),
				Inputs:          inputs,
				Factory:         benor.NewFactory(benor.Config{N: tc.n, F: tc.f, Seed: seed}),
				Scheduler:       &sim.EdgeOrder{MaxDegree: tc.n},
				Crashes:         crashes,
				StopWhenDecided: true,
				MaxEvents:       2_000_000,
			})
			repBO := consensus.Check(inputs, resBO)
			if !repBO.Agreement || (repBO.SomeoneDecided && !repBO.Validity) {
				unsafe++
			}
			if repBO.Termination && !resBO.Cutoff {
				decides++
			}
		}
		if decides != runs || unsafe != 0 {
			e.OK = false
		}
		if stalls == 0 {
			e.Notes = append(e.Notes, fmt.Sprintf("n=%d: no two-phase stall observed under these schedules (Thm 3.2 still guarantees one exists; see E1)", tc.n))
		}
		e.Table.AddRow(tc.n, tc.f, runs, stalls, decides, unsafe)
	}
	e.Notes = append(e.Notes, "Ben-Or terminates with probability 1 under up to f < n/2 crashes; both algorithms keep agreement and validity unconditionally")
	return e
}
