package exp

import (
	"fmt"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/harness"
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
// response relay, which floods each acceptor's answer individually and
// lets any node count it — so every row must terminate in every run, and a
// row that does not fails the shape check: it is a regression of that
// fallback, not the paper's open question. "Optimizing our multihop upper bound to work
// in the presence of such links ... is left an open question" (Sec 2) is
// about the O(D*Fack) bound, which this table does not measure.
func E11UnreliableLinks() *Experiment {
	e := &Experiment{
		ID:    "E11",
		Claim: "Sec 2/5: the dual-graph abstract MAC layer variant; adapting the multihop upper bound to it is explicitly open",
		Table: &stats.Table{Columns: []string{"topology", "overlay edges", "deliver prob", "runs", "safety OK", "Lemma 4.2 OK", "terminated"}},
	}
	e.OK = true
	total, stalled := 0, 0
	cases := []struct {
		name    string
		topo    harness.Topo
		overlay int
	}{
		{"line-12", harness.Topo{Kind: "line", N: 12}, 8},
		{"grid-4x4", harness.Topo{Kind: "grid", Rows: 4, Cols: 4}, 10},
		{"random-16", harness.Topo{Kind: "random", N: 16, P: 0.1}, 12},
	}
	for _, tc := range cases {
		for _, p := range []float64{0.2, 0.8} {
			const runs = 4
			safeAll, auditOK := true, true
			terminated := 0
			for _, seed := range seedRange(runs) {
				audit := wpaxos.NewCountAudit()
				s := harness.Scenario{Algo: "wpaxos", Topo: tc.topo, Sched: "random", Fack: 4, Seed: seed,
					Overlay: fmt.Sprintf("extra:%d@%g", tc.overlay, p)}
				out, _, err := run(s, audit)
				if err != nil {
					e.fail("%s: %v", tc.name, err)
					return e
				}
				rep := out.Report
				if !rep.Agreement || !rep.Validity {
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
			"liveness: all %d runs terminated — a fast-path response lost on an unreliable edge is sent once, and the sticky response relay delivers each acceptor's answer by another road",
			total))
	} else {
		e.OK = false
		liveness = fmt.Sprintf("%d of %d runs stall", stalled, total)
		e.Notes = append(e.Notes, fmt.Sprintf(
			"liveness: %d of %d runs did not terminate — the relay fallback for responses lost on unreliable edges has regressed",
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
	// minorityrand crashes f = (n-1)/2 nodes, the most benor (registered
	// with that f) tolerates, at seeded times in [0, 4*Fack]; both
	// algorithms of a seed see the same crashes. edgeorder ignores the
	// requested Fack, so Fack 1 only puts the crashes inside the first
	// broadcasts.
	ns := []int{3, 5, 7}
	cells, err := sweep(harness.Grid{
		Algos: []string{"twophase", "benor"}, Topos: cliques(ns...),
		Scheds: []string{"edgeorder"}, Facks: []int64{1}, Crashes: []string{"minorityrand"},
		Seeds: seedRange(8), MaxEvents: 2_000_000,
	})
	if err != nil {
		e.fail("%v", err)
		return e
	}
	stalls, unsafe := make([]int, len(cells)), make([]int, len(cells))
	for i := range cells {
		for _, f := range cells[i].Flagged {
			if f.Violation.Kind == consensus.KindNonTermination {
				stalls[i]++
			} else {
				unsafe[i]++
			}
		}
	}
	for i, n := range ns {
		// Cells are algorithm-major: two-phase, then Ben-Or.
		tp, bo := i, len(ns)+i
		runs, decides := cells[tp].Runs, cells[bo].Runs-stalls[bo]
		if decides != runs || unsafe[tp]+unsafe[bo] != 0 {
			e.OK = false
		}
		if stalls[tp] == 0 {
			e.Notes = append(e.Notes, fmt.Sprintf("n=%d: no two-phase stall observed under these schedules (Thm 3.2 still guarantees one exists; see E1)", n))
		}
		e.Table.AddRow(n, (n-1)/2, runs, stalls[tp], decides, unsafe[tp]+unsafe[bo])
	}
	e.Notes = append(e.Notes, "Ben-Or terminates with probability 1 under up to f < n/2 crashes; both algorithms keep agreement and validity unconditionally")
	return e
}
