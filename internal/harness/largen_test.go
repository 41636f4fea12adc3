package harness

import (
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/metrics"
	"github.com/absmac/absmac/internal/sim"
)

// TestLargeNDecidesWithinEventBudget is the scale guard: full consensus on
// a 1024-node topology must arrive inside a per-algorithm budget of
// simulator events — a count, so the guard reads the same on any machine
// and fails with numbers. The budgets leave under 2x headroom over the
// pinned cell (on expander:1024:8 floodpaxos decides at t=977 in 2.28M
// events, wpaxos at t=110 in 253k): a baseline that slides back into
// relaying responses nobody can count, or a wPAXOS whose aggregation stops
// bounding its traffic, runs out of budget undecided. Two-phase on
// clique:1024 is Theorem 4.1's constant as an event count: it decides at
// t = 2*Fack after exactly two broadcasts a node, 2*n*(n-1) deliveries plus
// 2*n acks = 2 097 152 events, so a third round of anything does not fit.
func TestLargeNDecidesWithinEventBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node runs; the full tier-1 suite runs this")
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
		if out.Violation() != nil || out.Result.Cutoff {
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

// TestFailoverDecidesWithinEventBudget is the scale guard's crash half:
// both multihop algorithms on expander:64:8 with the max-id leader dead
// while its election flood spreads (maxid@10) or mid-round (maxid@40),
// seeds 1-4. A row that suspects runs Ω's rotation and gossip walk (21-56
// suspicions in a maxid@40 run) and decides in 10k-1.2M events; the
// budgets are about twice the largest row of each algorithm (wpaxos
// maxid@40 seed 4 at 1.14M, floodpaxos maxid@40 seed 4 at 1.14M), so a
// failover that stops deciding fails here instead of spinning to the cap.
func TestFailoverDecidesWithinEventBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("1.3M-event failover runs; the full tier-1 suite runs this")
	}
	for _, tc := range []struct {
		algo   string
		budget int
	}{
		{"wpaxos", 2_600_000},
		{"floodpaxos", 2_300_000},
	} {
		for _, crash := range []string{"maxid@10", "maxid@40"} {
			for seed := int64(1); seed <= 4; seed++ {
				out, err := Scenario{
					Algo:      tc.algo,
					Topo:      Topo{Kind: "expander", N: 64, Deg: 8},
					Sched:     "random",
					Fack:      4,
					Seed:      seed,
					Crashes:   crash,
					MaxEvents: tc.budget,
				}.Run()
				if err != nil {
					t.Fatal(err)
				}
				if out.Violation() != nil || out.Result.Cutoff {
					t.Errorf("%s %s seed %d: used %d of %d events (cutoff=%v), survivors decided at %d, agreement=%v validity=%v termination=%v",
						tc.algo, crash, seed, out.Result.Events, tc.budget, out.Result.Cutoff, out.Report.SurvivorDecideTime,
						out.Report.Agreement, out.Report.Validity, out.Report.Termination)
				}
			}
		}
	}
}

// TestWPaxosWorkingSetStaysSmall is the memory half of the scale guard:
// on expander:1024:8 a wPAXOS node at decide time tracks a handful of tree
// roots (itself, its leader, a root or two it heard of before its detector
// did) and holds in its relay the responses to the live number it has yet
// to pass on — not one entry per id it ever heard of, which is what makes
// per-node state Θ(n) and the network's Θ(n²). The bounds are on means
// over nodes at the end of the run (measured: 2.0 roots, 47.3 pending
// responses, the largest relay 57; a node that stores every root it hears
// of holds 154 here, so the tree bound is the one that bites at this size).
// The third count is the one table that is never purged, the propositions
// a node has seen: one or two per proposal number that reached it
// (measured: mean 26.0, largest 35; the bound of 40 fails once
// re-proposals stop being Θ(1) per change or something other than
// propositions lands in the set). The three gauges carry the largest table
// any node held at any time and must cover what the nodes report at the
// end.
func TestWPaxosWorkingSetStaysSmall(t *testing.T) {
	reg := metrics.New()
	cfg, err := Scenario{
		Algo:  "wpaxos",
		Topo:  Topo{Kind: "expander", N: 1024, Deg: 8},
		Sched: "random",
		Fack:  4,
		Seed:  1,
	}.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = reg
	var nodes []*wpaxos.Node
	factory := cfg.Factory
	cfg.Factory = func(nc amac.NodeConfig) amac.Algorithm {
		a := factory(nc)
		nodes = append(nodes, a.(*wpaxos.Node))
		return a
	}
	if res := sim.Run(cfg); !consensus.Check(cfg.Inputs, res).Termination {
		t.Fatalf("not all decided after %d events", res.Events)
	}
	var roots, pending, props, maxRoots, maxPending, maxProps int
	for _, nd := range nodes {
		r, q, p := nd.WorkingSet()
		roots, pending, props = roots+r, pending+q, props+p
		maxRoots, maxPending, maxProps = max(maxRoots, r), max(maxPending, q), max(maxProps, p)
	}
	n := float64(len(nodes))
	if mean := float64(roots) / n; mean > 4 {
		t.Errorf("mean tree roots per node at decide = %.1f, want <= 4", mean)
	}
	if mean := float64(pending) / n; mean > 64 {
		t.Errorf("mean relayed responses pending per node at decide = %.1f, want <= 64", mean)
	}
	if mean := float64(props) / n; mean > 40 {
		t.Errorf("mean seen propositions per node at decide = %.1f, want <= 40", mean)
	}
	if high := reg.Gauge("wpaxos_tree_roots").High(); high < int64(maxRoots) || high > 64 {
		t.Errorf("wpaxos_tree_roots high-water %d; a node ends with %d, bound 64", high, maxRoots)
	}
	if high := reg.Gauge("wpaxos_relay_pending").High(); high < int64(maxPending) || high > 256 {
		t.Errorf("wpaxos_relay_pending high-water %d; a node ends with %d, bound 256", high, maxPending)
	}
	if high := reg.Gauge("wpaxos_seen_props").High(); high < int64(maxProps) || high > 128 {
		t.Errorf("wpaxos_seen_props high-water %d; a node ends with %d, bound 128", high, maxProps)
	}
}

// TestWPaxosLossyOverlayDecideTime guards the one place where forgetting
// trees could have cost time: lossy overlay edges. A node that re-offers
// its leader's tree whenever it has nothing new to say (which is what the
// idle cycle does once it holds two roots instead of hundreds) keeps
// handing its neighbors shorter-but-lossy parents late, and every adoption
// is a change event that restarts the proposal: that design's medians are
// 105 and 99 ticks here; re-advertising only after a suspicion, 95 and 93
// (a node that tracks every root and cycles through all of them: 93, 95).
func TestWPaxosLossyOverlayDecideTime(t *testing.T) {
	seeds := make([]int64, 64)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	cells := mustSweep(t, Grid{
		Algos:    []string{"wpaxos"},
		Topos:    []Topo{{Kind: "grid", Rows: 5, Cols: 5}},
		Scheds:   []string{"random"},
		Facks:    []int64{4},
		Inputs:   []string{"alternating"},
		Crashes:  []string{"none", "midbroadcast"},
		Overlays: []string{"chords"},
		Seeds:    seeds,
	}, 0)
	if len(cells) != 2 {
		t.Fatalf("%d cells, want 2", len(cells))
	}
	for _, c := range cells {
		if c.Correct != c.Runs || c.Decide.Median > 100 {
			t.Errorf("wpaxos grid:5x5 %s+chords: %d of %d correct, median decide %v ticks, want all and <= 100",
				c.Crashes, c.Correct, c.Runs, c.Decide.Median)
		}
	}
}

// TestWPaxosLossyOverlayTailStaysNearReliable names the stall the response
// relay prevents on lossy overlays (the paper's open question, Section 2).
// The tree can adopt a parent across a lossy edge, a response routed up it
// is sent once and may be lost, and each adoption restarts the proposal;
// the relay re-offers every acceptor's answer until it is superseded, and
// any node that hears a majority decides. On ring:64 (D = 32), seeds 1–8,
// the slowest survivor decide time under extra:16@0.2 and @0.5 must stay
// within 1.5 × the no-overlay cell's (measured: 697 without an overlay;
// 647 and 457 with the relay, 1 640 and 1 098 when the tree transport fell
// back on per-origin state gossip instead).
func TestWPaxosLossyOverlayTailStaysNearReliable(t *testing.T) {
	cells := mustSweep(t, Grid{
		Algos:    []string{"wpaxos"},
		Topos:    []Topo{{Kind: "ring", N: 64}},
		Scheds:   []string{"random"},
		Facks:    []int64{4},
		Inputs:   []string{"alternating"},
		Crashes:  []string{"none"},
		Overlays: []string{"none", "extra:16@0.2", "extra:16@0.5"},
		Seeds:    []int64{1, 2, 3, 4, 5, 6, 7, 8},
	}, 0)
	if len(cells) != 3 {
		t.Fatalf("%d cells, want 3", len(cells))
	}
	var reliable float64
	for _, c := range cells {
		if c.Overlay == "none" {
			reliable = c.SurvivorDecide.Max
		}
	}
	for _, c := range cells {
		if c.Correct != c.Runs || c.SurvivorDecide.Max > 1.5*reliable {
			t.Errorf("wpaxos ring:64 %s: %d of %d correct, slowest survivor decide %v ticks, want all and <= 1.5 × %v",
				c.Overlay, c.Correct, c.Runs, c.SurvivorDecide.Max, reliable)
		}
	}
}

// TestWPaxosFinishesDeadLeadersRound names the stall the response relay
// prevents after a leader death. On expander:256:8 (D = 4) with the max-id
// leader dead at t=10, the survivors mostly still trust it, and they
// decide by finishing its proposition: every acceptor's answer floods, and
// any node that hears a majority of accepts decides, whoever proposed. The
// bound is 25 × D·Fack = 400 ticks on the slowest survivor of seeds 1–4
// (measured: 249–270; 1 195–1 407 when the tree transport fell back on
// per-origin state gossip and a chosen-value watch instead; 92 crash-free).
func TestWPaxosFinishesDeadLeadersRound(t *testing.T) {
	cells := mustSweep(t, Grid{
		Algos:   []string{"wpaxos"},
		Topos:   []Topo{{Kind: "expander", N: 256, Deg: 8}},
		Scheds:  []string{"random"},
		Facks:   []int64{4},
		Inputs:  []string{"alternating"},
		Crashes: []string{"maxid@10"},
		Seeds:   []int64{1, 2, 3, 4},
	}, 0)
	if len(cells) != 1 {
		t.Fatalf("%d cells, want 1", len(cells))
	}
	if c := cells[0]; c.Correct != c.Runs || c.SurvivorDecide.Max > 400 {
		t.Errorf("wpaxos expander:256:8 maxid@10: %d of %d correct, slowest survivor decide %v ticks, want all and <= 400",
			c.Correct, c.Runs, c.SurvivorDecide.Max)
	}
}
