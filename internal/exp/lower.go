package exp

import (
	"fmt"
	"sync/atomic"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/baseline/anonflood"
	"github.com/absmac/absmac/internal/baseline/waitall"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/core/twophase"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/lowerbound"
	"github.com/absmac/absmac/internal/stats"
)

// E1FLP reproduces Theorem 3.2 (and Lemma 3.1's valency machinery): on a
// 2-node clique it classifies every initial configuration of the two-phase
// algorithm by exhaustive valid-step exploration, then exhibits a one-crash
// schedule that reaches a quiescent undecided configuration.
func E1FLP() *Experiment {
	e := &Experiment{
		ID:    "E1",
		Title: "FLP generalization: crash failures forbid deterministic consensus",
		Claim: "Thm 3.2: no deterministic algorithm solves consensus with 1 crash failure; Lemma 3.1: bivalence persists under valid steps",
		Table: &stats.Table{Columns: []string{"inputs", "valency (0 crashes)", "dead w/o crash", "dead w/ 1 crash", "configs"}},
	}
	e.OK = true
	const n = 2
	foundBivalent := false
	foundCrashStall := false
	for mask := 0; mask < 1<<n; mask++ {
		inputs := make([]amac.Value, n)
		for i := range inputs {
			if mask&(1<<i) != 0 {
				inputs[i] = 1
			}
		}
		noCrash := &lowerbound.Explorer{N: n, Factory: twophase.Factory, Inputs: inputs}
		v0 := noCrash.Valency(nil)
		visited := noCrash.Visited()
		oneCrash := &lowerbound.Explorer{N: n, Factory: twophase.Factory, Inputs: inputs, MaxCrashes: 1}
		v1 := oneCrash.Valency(nil)

		if v0.Bivalent() {
			foundBivalent = true
		}
		if v0.Dead || v0.Truncated {
			e.OK = false
		}
		if v1.Dead {
			foundCrashStall = true
		}
		e.Table.AddRow(fmt.Sprintf("%v", inputs), v0.String(), boolMark(v0.Dead), boolMark(v1.Dead), visited)
	}
	if !foundBivalent || !foundCrashStall {
		e.OK = false
	}
	if schedule, ok := lowerbound.FindStallingSchedule(n, twophase.Factory, []amac.Value{0, 1}, 1, 30); ok {
		e.Notes = append(e.Notes, fmt.Sprintf("one-crash stalling schedule: %v", schedule))
	} else {
		e.OK = false
		e.Notes = append(e.Notes, "no stalling schedule found (unexpected)")
	}
	e.Notes = append(e.Notes,
		"a bivalent initial configuration exists and one crash suffices to freeze the system undecided,",
		"while without crashes every schedule decides (Thm 4.1's termination, checked exhaustively)")
	return e
}

// E2Anonymous reproduces Theorem 3.3 / Figure 1 with anonRuns, every node
// under the anonymity audit.
func E2Anonymous() *Experiment {
	e := &Experiment{
		ID:    "E2",
		Title: "Figure 1: anonymous consensus impossible (even knowing n and D)",
		Claim: "Thm 3.3: no anonymous algorithm solves consensus on all networks of a given diameter and size",
		Table: &stats.Table{Columns: []string{"D", "n'", "diam(A)", "diam(B)", "control on B", "violation in A", "gadget decisions", "id reads"}},
	}
	e.OK = true
	for _, tc := range []struct{ d, n int }{{6, 6}, {8, 40}, {10, 64}} {
		fig := graph.BuildFigure1(tc.d, tc.n)
		if err := fig.VerifyCoverProperty(); err != nil {
			e.fail("D=%d: %v", tc.d, err)
			continue
		}
		outs, reads, err := runAll(anonRuns(fig, tc.d, tc.n), true)
		if err != nil {
			e.fail("D=%d: %v", tc.d, err)
			continue
		}
		controlOK, violation, witness := outs[0].Report.OK(), !outs[1].Report.Agreement, outs[1]
		if !controlOK || !violation || reads != 0 {
			e.OK = false
		}
		e.Table.AddRow(tc.d, fig.N, fig.DiamA, fig.DiamB, boolMark(controlOK), boolMark(violation),
			fmt.Sprintf("%d vs %d", decision(witness, fig.AGadget[0][fig.Gadget.C()]),
				decision(witness, fig.AGadget[1][fig.Gadget.C()])), reads)
	}
	e.Notes = append(e.Notes,
		"the anonymous min-flood algorithm is correct on the threefold cover B yet splits on network A",
		"diam(B) is D+1..D+2 in our reconstruction of the cover (see internal/graph/paper.go); both runs use a common diameter bound")
	return e
}

// anonRuns is Theorem 3.3's construction on the Figure 1 networks fig of
// (d, n): anonflood, with the budget of a diameter bound both networks
// share, on network B under sync (the control), and on network A under
// gate, q silent until both gadgets have decided, from the cut inputs —
// gadget copy 1 starts with 1 (the witness).
func anonRuns(fig *graph.Figure1, d, n int) []harness.Scenario {
	rounds := anonflood.RoundsForDiameter(max(fig.DiamA, fig.DiamB))
	control := harness.Scenario{Algo: fmt.Sprintf("anonflood@%d", rounds),
		Topo: harness.Topo{Kind: "fig1b", Diam: d, N: n}, Sched: "sync", Fack: 1}
	witness := control
	witness.Topo.Kind, witness.Inputs, witness.Sched = "fig1a", "cut", fmt.Sprintf("gate@%d", rounds+2)
	return []harness.Scenario{control, witness}
}

// E3SizeKnowledge reproduces Theorem 3.9 / Figure 2 with sizeRuns.
func E3SizeKnowledge() *Experiment {
	e := &Experiment{
		ID:    "E3",
		Title: "Figure 2: consensus impossible without knowledge of n",
		Claim: "Thm 3.9: even with unique ids and known D, consensus is impossible in multihop networks without knowing n",
		Table: &stats.Table{Columns: []string{"D", "|K_D|", "control on line", "split-brain in K_D", "line decisions", "gatherall(n) on K_D"}},
	}
	e.OK = true
	for _, d := range []int{2, 4, 6, 8} {
		kd := graph.BuildKD(d)
		outs, _, err := runAll(sizeRuns(d), false)
		if err != nil {
			e.fail("D=%d: %v", d, err)
			continue
		}
		lineOK, splitBrain, withNOK := outs[0].Report.OK(), !outs[1].Report.Agreement, outs[2].Report.OK()
		if !lineOK || !splitBrain || !withNOK {
			e.OK = false
		}
		e.Table.AddRow(d, kd.G.N(), boolMark(lineOK), boolMark(splitBrain),
			fmt.Sprintf("%d vs %d", decision(outs[1], kd.L1[0]), decision(outs[1], kd.L2[0])), boolMark(withNOK))
	}
	e.Notes = append(e.Notes,
		"the n-oblivious gatherer behaves identically on the silenced K_D lines and the standalone line (Lemma 3.8's indistinguishability)",
		"restoring knowledge of n (gatherall) removes the counterexample: it just waits out the silence")
	return e
}

// sizeRuns is Theorem 3.9's construction for diameter d: waitall, which
// knows d but not n, with the budget of d, on the line L_d under sync
// (the control), then on K_d under gate, the hub silent until both lines
// have decided, from the cut inputs — L2 starts with 1 (the witness);
// then gatherall, which knows n, in the witness's place.
func sizeRuns(d int) []harness.Scenario {
	rounds := waitall.RoundsForDiameter(d)
	line := harness.Scenario{Algo: fmt.Sprintf("waitall@%d", rounds), Topo: harness.Topo{Kind: "line", N: d + 1},
		Sched: "sync", Fack: 1}
	split := line
	split.Topo, split.Inputs, split.Sched = harness.Topo{Kind: "kd", Diam: d}, "cut", fmt.Sprintf("gate@%d", rounds+2)
	withN := split
	withN.Algo = "gatherall"
	return []harness.Scenario{line, split, withN}
}

// E4TimeLowerBound reproduces Theorem 3.10 with partitionRuns.
func E4TimeLowerBound() *Experiment {
	e := &Experiment{
		ID:    "E4",
		Title: "Partition bound: consensus needs at least floor(D/2)*Fack time",
		Claim: "Thm 3.10: no algorithm decides in under floor(D/2)*Fack on diameter-D networks",
		Table: &stats.Table{Columns: []string{"D", "Fack", "bound", "hasty decide@", "hasty violated", "wPAXOS earliest decide"}},
	}
	e.OK = true
	for _, tc := range []struct {
		d    int
		fack int64
	}{{4, 2}, {8, 2}, {16, 4}, {32, 4}} {
		outs, _, err := runAll(partitionRuns(tc.d, tc.fack), false)
		if err != nil {
			e.fail("D=%d: %v", tc.d, err)
			continue
		}
		bound := int64(tc.d/2) * tc.fack
		hastyAt, hastyViolated, earliest := outs[0].Result.MaxDecideTime, !outs[0].Report.Agreement, earliestDecision(outs[1])
		if !hastyViolated || hastyAt >= bound || outs[1].Violation() != nil || earliest < bound {
			e.OK = false
		}
		e.Table.AddRow(tc.d, tc.fack, bound, hastyAt, boolMark(hastyViolated), earliest)
	}
	e.Notes = append(e.Notes,
		"an algorithm deciding before the bound splits the two-valued line (partition argument);",
		"wPAXOS's earliest decision always lands at or beyond floor(D/2)*Fack under the max-delay scheduler")
	return e
}

// partitionRuns is Theorem 3.10's partition on the line of diameter d
// under maxdelay: a hasty anonflood, whose max(1, floor(d/2)-1) ack cycles
// cannot cross half the line, from the half inputs (the witness), then
// wPAXOS.
func partitionRuns(d int, fack int64) []harness.Scenario {
	hasty := harness.Scenario{Algo: fmt.Sprintf("anonflood@%d", max(1, d/2-1)),
		Topo: harness.Topo{Kind: "line", N: d + 1}, Inputs: "half", Sched: "maxdelay", Fack: fack}
	correct := hasty
	correct.Algo, correct.Inputs = "wpaxos", ""
	return []harness.Scenario{hasty, correct}
}

// earliestDecision is the first decide time of out's run.
func earliestDecision(out *harness.Outcome) int64 {
	res := out.Result
	earliest := res.MaxDecideTime
	for i, dec := range res.Decided {
		if dec && res.DecideTime[i] < earliest {
			earliest = res.DecideTime[i]
		}
	}
	return earliest
}

// runAll runs each scenario on its own executor, so that every Outcome's
// Result stays valid. With audit every node is built under
// consensus.AnonymityAudit, and reads counts the id reads of all runs.
func runAll(ss []harness.Scenario, audit bool) (outs []*harness.Outcome, reads int64, err error) {
	outs = make([]*harness.Outcome, len(ss))
	for i, s := range ss {
		cfg, err := s.Config()
		if err != nil {
			return nil, 0, err
		}
		counter := new(atomic.Int64)
		if audit {
			cfg.Factory, counter = consensus.AnonymityAudit(cfg.Factory)
		}
		if outs[i], _, _, err = harness.Execute(s, cfg, harness.Exec{}); err != nil {
			return nil, 0, err
		}
		reads += counter.Load()
	}
	return outs, reads, nil
}

// decision is node u's decision in out, 0 if it did not decide.
func decision(out *harness.Outcome, u int) amac.Value {
	if !out.Result.Decided[u] {
		return 0
	}
	return out.Result.Decision[u]
}
