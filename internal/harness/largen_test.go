package harness

import "testing"

// TestLargeNDecidesWithinEventBudget is the scale guard: full consensus on
// a 1024-node topology must arrive inside a per-algorithm budget of
// simulator events — a count, so the guard reads the same on any machine
// and fails with numbers. The budgets leave under 2x headroom over the
// pinned cell (on expander:1024:8 floodpaxos decides at t=977 in 2.28M
// events, wpaxos at t=106 in 244k): a baseline that slides back into
// relaying responses nobody can count, or a wPAXOS whose aggregation stops
// bounding its traffic, runs out of budget undecided. Two-phase on
// clique:1024 is Theorem 4.1's constant as an event count: it decides at
// t = 2*Fack after exactly two broadcasts a node, 2*n*(n-1) deliveries plus
// 2*n acks = 2 097 152 events, so a third round of anything does not fit.
func TestLargeNDecidesWithinEventBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node runs; the test-long CI job runs this by name")
	}
	expander := Topo{Kind: "expander", N: 1024, Deg: 8}
	for _, tc := range []struct {
		algo   string
		topo   Topo
		budget int
	}{
		{"floodpaxos", expander, 4_000_000},
		{"wpaxos", expander, 500_000},
		{"twophase", Topo{Kind: "clique", N: 1024}, 2_200_000},
	} {
		sc := Scenario{
			Algo:      tc.algo,
			Topo:      tc.topo,
			Sched:     "random",
			Fack:      4,
			Seed:      1,
			MaxEvents: tc.budget,
		}
		out, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !out.OK() || out.Result.Cutoff {
			undecided := 0
			for i, d := range out.Result.Decided {
				if !d && !out.Result.Crashed[i] {
					undecided++
				}
			}
			t.Errorf("%s on %s: used %d of %d events (cutoff=%v), decide time %d, %d of %d nodes undecided, agreement=%v validity=%v",
				tc.algo, tc.topo, out.Result.Events, tc.budget, out.Result.Cutoff, out.Result.MaxDecideTime,
				undecided, out.N, out.Report.Agreement, out.Report.Validity)
		}
	}
}
