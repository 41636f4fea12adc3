package exp

import (
	"fmt"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/core/twophase"
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

// E2Anonymous reproduces Theorem 3.3 / Figure 1.
func E2Anonymous() *Experiment {
	e := &Experiment{
		ID:    "E2",
		Title: "Figure 1: anonymous consensus impossible (even knowing n and D)",
		Claim: "Thm 3.3: no anonymous algorithm solves consensus on all networks of a given diameter and size",
		Table: &stats.Table{Columns: []string{"D", "n'", "diam(A)", "diam(B)", "control on B", "violation in A", "gadget decisions", "id reads"}},
	}
	e.OK = true
	for _, tc := range []struct{ d, n int }{{6, 6}, {8, 40}, {10, 64}} {
		res, err := lowerbound.RunAnonImpossibility(tc.d, tc.n)
		if err != nil {
			e.fail("D=%d: %v", tc.d, err)
			continue
		}
		if !res.ControlOK || !res.ViolationInA || res.IDReads != 0 {
			e.OK = false
		}
		e.Table.AddRow(tc.d, res.Fig.N, res.Fig.DiamA, res.Fig.DiamB,
			boolMark(res.ControlOK), boolMark(res.ViolationInA),
			fmt.Sprintf("%d vs %d", res.Gadget0Decision, res.Gadget1Decision), res.IDReads)
	}
	e.Notes = append(e.Notes,
		"the anonymous min-flood algorithm is correct on the threefold cover B yet splits on network A",
		"diam(B) is D+1..D+2 in our reconstruction of the cover (see internal/graph/paper.go); both runs use a common diameter bound")
	return e
}

// E3SizeKnowledge reproduces Theorem 3.9 / Figure 2.
func E3SizeKnowledge() *Experiment {
	e := &Experiment{
		ID:    "E3",
		Title: "Figure 2: consensus impossible without knowledge of n",
		Claim: "Thm 3.9: even with unique ids and known D, consensus is impossible in multihop networks without knowing n",
		Table: &stats.Table{Columns: []string{"D", "|K_D|", "control on line", "split-brain in K_D", "line decisions", "gatherall(n) on K_D"}},
	}
	e.OK = true
	for _, d := range []int{2, 4, 6, 8} {
		res, err := lowerbound.RunSizeImpossibility(d)
		if err != nil {
			e.fail("D=%d: %v", d, err)
			continue
		}
		if !res.ControlLineOK || !res.ViolationInKD || !res.ControlWithNOK {
			e.OK = false
		}
		e.Table.AddRow(d, res.KD.G.N(), boolMark(res.ControlLineOK), boolMark(res.ViolationInKD),
			fmt.Sprintf("%d vs %d", res.L1Decision, res.L2Decision), boolMark(res.ControlWithNOK))
	}
	e.Notes = append(e.Notes,
		"the n-oblivious gatherer behaves identically on the silenced K_D lines and the standalone line (Lemma 3.8's indistinguishability)",
		"restoring knowledge of n (gatherall) removes the counterexample: it just waits out the silence")
	return e
}

// E4TimeLowerBound reproduces Theorem 3.10.
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
		part, err := lowerbound.RunPartition(tc.d, tc.fack)
		if err != nil {
			e.fail("D=%d: %v", tc.d, err)
			continue
		}
		// A correct algorithm on the same instance: earliest decision
		// must respect the bound.
		out, err := harness.Scenario{Algo: "wpaxos", Topo: harness.Topo{Kind: "line", N: tc.d + 1},
			Sched: "maxdelay", Fack: tc.fack}.Run()
		if err != nil {
			e.fail("D=%d: %v", tc.d, err)
			continue
		}
		res := out.Result
		earliest := res.MaxDecideTime
		for i, dec := range res.Decided {
			if dec && res.DecideTime[i] < earliest {
				earliest = res.DecideTime[i]
			}
		}
		if !part.HastyViolated || part.HastyDecideTime >= part.Bound || out.Violation() != nil || earliest < part.Bound {
			e.OK = false
		}
		e.Table.AddRow(tc.d, tc.fack, part.Bound, part.HastyDecideTime, boolMark(part.HastyViolated), earliest)
	}
	e.Notes = append(e.Notes,
		"an algorithm deciding before the bound splits the two-valued line (partition argument);",
		"wPAXOS's earliest decision always lands at or beyond floor(D/2)*Fack under the max-delay scheduler")
	return e
}
