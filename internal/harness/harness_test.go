package harness

import (
	"reflect"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/sim"
)

func TestRegistriesCoverSeedNames(t *testing.T) {
	for _, algo := range []string{"twophase", "wpaxos", "floodpaxos", "gatherall", "benor", "anonflood", "waitall"} {
		if _, err := NewFactory(algo, 4, 1); err != nil {
			t.Errorf("algorithm %q not registered: %v", algo, err)
		}
	}
	for _, sched := range []string{"sync", "random", "maxdelay", "edgeorder"} {
		tp := Topo{Kind: "clique", N: 4}
		g, err := tp.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewScheduler(sched, 4, 1, g); err != nil {
			t.Errorf("scheduler %q not registered: %v", sched, err)
		}
	}
	for _, pattern := range []string{"alternating", "zeros", "ones", "half"} {
		if _, err := NewInputs(pattern, 4); err != nil {
			t.Errorf("input pattern %q not registered: %v", pattern, err)
		}
	}
}

func TestRegistryErrors(t *testing.T) {
	if _, err := NewFactory("nope", 4, 1); err == nil {
		t.Error("unknown algorithm accepted")
	}
	g, _ := Topo{Kind: "clique", N: 4}.Build(1)
	if _, err := NewScheduler("nope", 4, 1, g); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if _, err := NewScheduler("random", 0, 1, g); err == nil {
		t.Error("Fack=0 accepted")
	}
	if _, err := NewInputs("nope", 4); err == nil {
		t.Error("unknown input pattern accepted")
	}
}

func TestInputPatterns(t *testing.T) {
	cases := map[string][]amac.Value{
		"alternating": {0, 1, 0, 1},
		"zeros":       {0, 0, 0, 0},
		"ones":        {1, 1, 1, 1},
		"half":        {0, 0, 1, 1},
	}
	for pattern, want := range cases {
		got, err := NewInputs(pattern, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pattern %q: got %v, want %v", pattern, got, want)
		}
	}
	// The empty pattern defaults to alternating.
	got, err := NewInputs("", 4)
	if err != nil || !reflect.DeepEqual(got, cases["alternating"]) {
		t.Errorf("empty pattern: got %v, %v", got, err)
	}
}

func TestParseTopoRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"clique:8", "line:5", "ring:6", "star:7",
		"grid:3x4", "tree:2x3", "starlines:4x2", "random:12:0.1",
		"expander:16:4", "pods:4:5:2",
	} {
		tp, err := ParseTopo(spec)
		if err != nil {
			t.Fatalf("ParseTopo(%q): %v", spec, err)
		}
		if tp.String() != spec {
			t.Errorf("round trip %q -> %q", spec, tp.String())
		}
		if _, err := tp.Build(1); err != nil {
			t.Errorf("Build(%q): %v", spec, err)
		}
	}
}

func TestParseTopoErrors(t *testing.T) {
	for _, spec := range []string{
		"", "clique", "clique:", "clique:x", "clique:3:4",
		"grid:3", "grid:3x", "grid:ax2", "tree:22", "random:5", "random:5:x", "mesh:4",
		"expander:16", "expander:16:x", "expander:16:4:2", "pods:4:5", "pods:4:5:x", "pods:a:5:2",
	} {
		if _, err := ParseTopo(spec); err == nil {
			t.Errorf("ParseTopo(%q) accepted", spec)
		}
	}
}

func TestTopoBuildErrors(t *testing.T) {
	for _, tp := range []Topo{
		{Kind: "clique", N: 0},
		{Kind: "ring", N: 2},
		{Kind: "grid", Rows: 0, Cols: 3},
		{Kind: "tree", Branch: 0, Depth: 2},
		{Kind: "starlines", Arms: 0, ArmLen: 1},
		{Kind: "random", N: 4, P: 1.5},
		{Kind: "expander", N: 8, Deg: 2}, // d < 3
		{Kind: "expander", N: 5, Deg: 3}, // n*d odd
		{Kind: "expander", N: 4, Deg: 4}, // d >= n
		{Kind: "pods", Pods: 0, PodSize: 3, Cross: 1},
		{Kind: "pods", Pods: 3, PodSize: 4, Cross: 0}, // p > 1 needs cross links
		{Kind: "nope", N: 4},
	} {
		if _, err := tp.Build(1); err == nil {
			t.Errorf("Build(%+v) accepted", tp)
		}
	}
}

// TestEveryFamilyAdjacencyConsistent builds one small instance of every
// registered topology family and cross-checks the CSR representation
// against itself: rows symmetric and duplicate-free, degrees and edge
// count consistent, HasEdge agreeing with row membership on every pair.
// This is the representation-equivalence guard for the flat CSR storage —
// any divergence between the packed rows, the degree counters and the
// edge set shows up here for every family at once.
func TestEveryFamilyAdjacencyConsistent(t *testing.T) {
	specs := map[string]string{
		"clique":    "clique:6",
		"expander":  "expander:12:3",
		"grid":      "grid:3x4",
		"line":      "line:7",
		"pods":      "pods:3:4:2",
		"random":    "random:10:0.2",
		"ring":      "ring:6",
		"star":      "star:6",
		"starlines": "starlines:3x2",
		"tree":      "tree:2x2",
	}
	for _, kind := range Topologies() {
		spec, ok := specs[kind]
		if !ok {
			t.Errorf("registered family %q has no consistency spec; add one", kind)
			continue
		}
		tp, err := ParseTopo(spec)
		if err != nil {
			t.Fatalf("ParseTopo(%q): %v", spec, err)
		}
		g, err := tp.Build(3)
		if err != nil {
			t.Fatalf("Build(%q): %v", spec, err)
		}
		n := g.N()
		edges := 0
		for u := 0; u < n; u++ {
			row := g.Neighbors(u)
			if len(row) != g.Degree(u) {
				t.Errorf("%s: node %d row length %d != degree %d", spec, u, len(row), g.Degree(u))
			}
			seen := map[int]bool{}
			for _, v := range row {
				if v == u || v < 0 || v >= n {
					t.Errorf("%s: node %d row holds invalid neighbor %d", spec, u, v)
				}
				if seen[v] {
					t.Errorf("%s: node %d row repeats neighbor %d", spec, u, v)
				}
				seen[v] = true
				edges++
			}
			for v := 0; v < n; v++ {
				if g.HasEdge(u, v) != seen[v] {
					t.Errorf("%s: HasEdge(%d,%d) = %v disagrees with row membership", spec, u, v, g.HasEdge(u, v))
				}
			}
		}
		if edges != 2*g.M() {
			t.Errorf("%s: row entries %d != 2*M = %d (asymmetric rows)", spec, edges, 2*g.M())
		}
	}

	// The ring keeps its legacy insertion-order rows (node n-1 closes the
	// cycle last, so its row is [n-2, 0]): the random scheduler draws
	// per-neighbor delivery times by row index, and the golden grid pins
	// executions on ring:5. This assertion fails loudly if anyone "fixes"
	// the ring to sorted rows.
	ring, err := Topo{Kind: "ring", N: 5}.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ring.Neighbors(4); !reflect.DeepEqual(got, []int{3, 0}) {
		t.Errorf("ring:5 node 4 row = %v, want legacy insertion order [3 0] (golden grid depends on it)", got)
	}
}

func TestTopoJSONTextForm(t *testing.T) {
	tp := Topo{Kind: "grid", Rows: 3, Cols: 4}
	b, err := tp.MarshalText()
	if err != nil || string(b) != "grid:3x4" {
		t.Fatalf("MarshalText: %q, %v", b, err)
	}
	var back Topo
	if err := back.UnmarshalText(b); err != nil || back != tp {
		t.Fatalf("UnmarshalText: %+v, %v", back, err)
	}
	if err := back.UnmarshalText([]byte("junk")); err == nil {
		t.Fatal("UnmarshalText accepted junk")
	}
}

func TestScenarioConfigErrors(t *testing.T) {
	base := Scenario{Algo: "wpaxos", Topo: Topo{Kind: "clique", N: 4}, Sched: "sync", Fack: 4, Seed: 1}
	bad := []Scenario{
		func() Scenario { s := base; s.Algo = "nope"; return s }(),
		func() Scenario { s := base; s.Sched = "nope"; return s }(),
		func() Scenario { s := base; s.Fack = 0; return s }(),
		func() Scenario { s := base; s.Fack = sim.MaxFack + 1; return s }(),
		func() Scenario { s := base; s.Topo = Topo{Kind: "nope"}; return s }(),
		func() Scenario { s := base; s.Inputs = "nope"; return s }(),
		func() Scenario { s := base; s.InputValues = []amac.Value{0, 1}; return s }(),
		func() Scenario { s := base; s.InputValues = []amac.Value{0, 1, 2, 1}; return s }(),
	}
	for i, s := range bad {
		if _, err := s.Config(); err == nil {
			t.Errorf("case %d: invalid scenario accepted", i)
		}
	}
	if _, err := base.Config(); err != nil {
		t.Fatalf("base scenario rejected: %v", err)
	}
}

// TestDefeatedBaselineRegistration: the two baselines the paper's lower
// bounds defeat still satisfy the registry contract — with the universal
// diameter bound n-1 they are correct on crash-free reliable executions —
// so sweeps can now cover every implemented algorithm.
func TestDefeatedBaselineRegistration(t *testing.T) {
	for _, algo := range []string{"anonflood", "waitall"} {
		for _, topo := range []Topo{{Kind: "clique", N: 6}, {Kind: "line", N: 5}} {
			for _, sched := range []string{"sync", "random"} {
				out, err := Scenario{Algo: algo, Topo: topo, Sched: sched, Fack: 3, Seed: 2}.Run()
				if err != nil {
					t.Fatalf("%s on %s under %s: %v", algo, topo, sched, err)
				}
				if !out.OK() {
					t.Errorf("%s on %s under %s: %v", algo, topo, sched, out.Report.Errors)
				}
			}
		}
	}
}

// TestScenarioDeterminism is the harness round-trip guard: the same
// Scenario must yield identical results across two independent runs —
// every timing and message count, not just the decision.
func TestScenarioDeterminism(t *testing.T) {
	scenarios := []Scenario{
		{Algo: "twophase", Topo: Topo{Kind: "clique", N: 6}, Sched: "random", Fack: 7, Seed: 3},
		{Algo: "wpaxos", Topo: Topo{Kind: "grid", Rows: 3, Cols: 3}, Sched: "random", Fack: 4, Seed: 9},
		{Algo: "benor", Topo: Topo{Kind: "clique", N: 5}, Sched: "random", Fack: 3, Seed: 11},
		{Algo: "floodpaxos", Topo: Topo{Kind: "random", N: 10, P: 0.2}, Sched: "maxdelay", Fack: 5, Seed: 4},
	}
	for _, sc := range scenarios {
		a, err := sc.Run()
		if err != nil {
			t.Fatalf("%s on %s: %v", sc.Algo, sc.Topo, err)
		}
		b, err := sc.Run()
		if err != nil {
			t.Fatalf("%s on %s: %v", sc.Algo, sc.Topo, err)
		}
		if !a.OK() {
			t.Errorf("%s on %s: consensus violated: %v", sc.Algo, sc.Topo, a.Report.Errors)
		}
		if !reflect.DeepEqual(a.Result, b.Result) {
			t.Errorf("%s on %s seed %d: two runs of the same scenario differ", sc.Algo, sc.Topo, sc.Seed)
		}
	}
}
