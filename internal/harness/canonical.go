package harness

// CanonicalGrids returns the full sweep that `amacsim -canonical` runs:
// every algorithm on the single-hop topology, the multihop-capable
// algorithms across the topology zoo, and two fault grids exercising the
// crash-pattern and overlay axes. (Two-phase is a single-hop algorithm —
// Theorem 4.1 assumes a clique — so it does not appear in the multihop
// group; the defeated baselines anonflood and waitall appear in the
// single-hop group, where their diameter-derived round budgets are
// honest.)
//
// The topology zoo covers every registered family (ParseTopo's grammar):
// the standard families, the paper's fig1a:D:N, fig1b:D:N and kd:D, and
// the degree-bounded sparse families expander:N:D and pods:P:K:C at small
// parameters. No two cells of the four grids share every non-seed axis,
// so their work-units concatenate into one flat sweep.
func CanonicalGrids() []Grid {
	seeds := make([]int64, 8)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	singlehop := Grid{
		Algos:  []string{"twophase", "wpaxos", "floodpaxos", "gatherall", "benor", "anonflood", "waitall"},
		Topos:  []Topo{{Kind: "clique", N: 4}, {Kind: "clique", N: 8}},
		Scheds: []string{"sync", "random", "maxdelay"},
		Facks:  []int64{2, 8},
		Seeds:  seeds,
	}
	// The sparse families run here at small parameters so every registered
	// topology kind appears in the canonical grid
	// (TestCanonicalGridCoversEveryFamily; their large-n shapes —
	// expander:4096:8, pods:64:64:4 — belong to the bench tier and the
	// large-n tests, not an 8-seed correctness grid).
	multihop := Grid{
		Algos: []string{"wpaxos", "floodpaxos", "gatherall"},
		Topos: []Topo{
			{Kind: "line", N: 8},
			{Kind: "ring", N: 9},
			{Kind: "star", N: 8},
			{Kind: "grid", Rows: 4, Cols: 4},
			{Kind: "tree", Branch: 2, Depth: 3},
			{Kind: "starlines", Arms: 4, ArmLen: 2},
			{Kind: "random", N: 16, P: 0.15},
			{Kind: "expander", N: 16, Deg: 4},
			{Kind: "pods", Pods: 4, PodSize: 4, Cross: 2},
			{Kind: "fig1a", Diam: 6, N: 6},
			{Kind: "fig1b", Diam: 6, N: 6},
			{Kind: "kd", Diam: 2},
		},
		Scheds: []string{"sync", "random", "maxdelay"},
		Facks:  []int64{2, 8},
		Seeds:  seeds,
	}
	// Crash patterns on the single-hop topology, restricted to the
	// crash-tolerant algorithms (twophase stalls without its coordinator
	// — that regime belongs to the lower-bound experiments, not the
	// always-green canonical grid; gatherall waits for n values, so any
	// start-time crash starves it).
	faultclique := Grid{
		Algos:   []string{"wpaxos", "floodpaxos", "benor"},
		Topos:   []Topo{{Kind: "clique", N: 8}},
		Scheds:  []string{"sync", "random"},
		Facks:   []int64{4},
		Crashes: []string{"one@0", "coordinator", "midbroadcast", "maxid@6"},
		Seeds:   seeds,
	}
	// Crash x overlay cross product on multihop topologies. With the Ω
	// failure detector (suspicion + rotation + retransmit-until-superseded)
	// both PAXOS variants survive every crash-pattern/overlay combination
	// here, including maxid@T — the stable leader dying after election has
	// settled.
	faultmultihop := Grid{
		Algos:    []string{"wpaxos", "floodpaxos"},
		Topos:    []Topo{{Kind: "ring", N: 9}, {Kind: "grid", Rows: 3, Cols: 3}},
		Scheds:   []string{"random"},
		Facks:    []int64{4},
		Crashes:  []string{"one@0", "midbroadcast", "maxid@6"},
		Overlays: []string{"none", "randomextra:0.25", "chords"},
		Seeds:    seeds,
	}
	return []Grid{singlehop, multihop, faultclique, faultmultihop}
}
