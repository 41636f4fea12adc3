package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/graph"
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

// TestInspectAgreesWithResult runs every registered algorithm on clique:5,
// which all of them support, crash-free and under minorityrand (at seed 24
// node 1 crashes at 0, before it starts, and node 2 at 8), and reads every
// node's amac.View afterwards, crashed or not. The view's decision must be
// the one the simulator recorded. The two Paxos variants must also report
// a sane ballot state and a leader estimate that is an id of the run (the
// harness's ids are 1..n), or none on a node that never started; every
// other algorithm tracks its decision alone, so the rest of its view is
// zero.
func TestInspectAgreesWithResult(t *testing.T) {
	paxos := map[string]bool{"wpaxos": true, "floodpaxos": true}
	lessEq := func(a, b amac.Ballot) bool { return a.Tag < b.Tag || a.Tag == b.Tag && a.ID <= b.ID }
	for _, algo := range Algorithms() {
		for _, crashes := range []string{"none", "minorityrand"} {
			cfg, err := Scenario{Algo: algo, Topo: Topo{Kind: "clique", N: 5}, Sched: "random",
				Fack: 4, Seed: 24, Crashes: crashes, MaxEvents: 200_000}.Config()
			if err != nil {
				t.Fatal(err)
			}
			var nodes []amac.Inspector
			build := cfg.Factory
			cfg.Factory = func(nc amac.NodeConfig) amac.Algorithm {
				a := build(nc)
				nodes = append(nodes, a.(amac.Inspector))
				return a
			}
			res := sim.Run(cfg)
			unstarted := map[int]bool{}
			for _, c := range cfg.Crashes {
				unstarted[c.Node] = unstarted[c.Node] || c.At == 0
			}
			for i, nd := range nodes {
				v := nd.Inspect()
				where := fmt.Sprintf("%s crashes=%s node %d (crashed %v)", algo, crashes, i, res.Crashed[i])
				if v.Decided != res.Decided[i] || v.Decision != res.Decision[i] {
					t.Errorf("%s: view decided %v, %d; result %v, %d", where, v.Decided, v.Decision, res.Decided[i], res.Decision[i])
				}
				if !paxos[algo] {
					if v != (amac.View{Decided: v.Decided, Decision: v.Decision, Omega: amac.NoID}) {
						t.Errorf("%s: untracked fields are not zero: %+v", where, v)
					}
					continue
				}
				if !lessEq(v.Accepted, v.Promised) || v.MaxTag < v.Promised.Tag {
					t.Errorf("%s: accepted %v, promised %v, max tag %d", where, v.Accepted, v.Promised, v.MaxTag)
				}
				ok := v.Omega >= 1 && int(v.Omega) <= len(nodes)
				if unstarted[i] {
					ok = v.Omega == amac.NoID
				}
				if !ok {
					t.Errorf("%s: leader estimate %d (started %v)", where, v.Omega, !unstarted[i])
				}
			}
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
	// Node or edge counts that overflow int, or exceed sim.MaxNodes or the
	// graph's int32 offsets, on the way to a constructor: an error naming the spec, not a panic inside
	// internal/graph.
	for _, spec := range []string{
		"tree:2x70",
		"grid:3037000500x3037000500",
		"starlines:4611686018427387904x4",
		"pods:4611686018427387904:4:1",
		"line:2147483648",
		// Directed edge counts past graph.Build's int32 offsets: refused
		// before the clique's edge list is allocated.
		"clique:46342",
		"clique:50000",
		"clique:2147483647",
	} {
		tp, err := ParseTopo(spec)
		if err == nil {
			_, err = tp.Build(1)
		}
		if err == nil || !strings.Contains(err.Error(), spec) {
			t.Errorf("%s: got error %v, want one naming the spec", spec, err)
		}
	}
	// The largest clique whose n(n-1) still fits stays legal (building it
	// would take 16 GB of edge list, so only the bound is checked).
	if tp, err := ParseTopo("clique:46341"); err != nil || tp.arcs() > math.MaxInt32 {
		t.Errorf("clique:46341: arcs %d (parse error %v), want within math.MaxInt32", tp.arcs(), err)
	}
}

// familySpecs names one small instance of every registered topology family.
var familySpecs = map[string]string{
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

// TestEveryFamilyAdjacencyConsistent builds one small instance of every
// registered topology family and cross-checks the CSR representation
// against itself: rows symmetric and duplicate-free, degrees and edge
// count consistent, HasEdge agreeing with row membership on every pair.
// This is the representation-equivalence guard for the flat CSR storage —
// any divergence between the packed rows, the row offsets and HasEdge's
// search of them shows up here for every family at once.
func TestEveryFamilyAdjacencyConsistent(t *testing.T) {
	for _, kind := range Topologies() {
		spec, ok := familySpecs[kind]
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

// rowsDigest folds every adjacency row, in node order and row order, into
// one FNV-1a hash: a neighbor changing position changes it.
func rowsDigest(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	put(g.N())
	for u := 0; u < g.N(); u++ {
		row := g.Neighbors(u)
		put(len(row))
		for _, v := range row {
			put(v)
		}
	}
	return h.Sum64()
}

// TestAdjacencyRowsPinned pins the order of every adjacency row the
// constructors emit: delivery plans are positional over Neighbors, so a
// row changing order changes executions, and the goldens only cover the
// topologies they happen to use (no expander, pods or random cell). One
// instance of every registered family (the seeded ones at seeds 0-2), the
// three overlay families over an unsorted-row base and a sorted-row one,
// and the paper's lower-bound networks. The constants were recorded at
// PR 23, on the mutable edge-log graph, before graph.Build replaced it.
func TestAdjacencyRowsPinned(t *testing.T) {
	want := map[string]uint64{
		"K_4":                      0xc2dcbc61d792d24f,
		"clique:6#0":               0x7d707a02ded2b722,
		"expander:12:3#0":          0xc49247e40beb5d49,
		"expander:12:3#1":          0x2488f088595e79c9,
		"expander:12:3#2":          0xd3f00dd558263749,
		"figure1.A":                0xb108a98f229a503f,
		"figure1.B":                0xfc2a9105387fbed4,
		"gadget":                   0x1808dbec6fbaac66,
		"grid:3x3+chords":          0x364ae1c703c4216e,
		"grid:3x3+extra:4":         0x8eb714923b9964d,
		"grid:3x3+randomextra:0.3": 0x43998b518afec669,
		"grid:3x4#0":               0x25f3707d4e17d24a,
		"line:7#0":                 0xa98f20c1fdfedd26,
		"pods:3:4:2#0":             0xd02a819bc8b2b404,
		"pods:3:4:2#1":             0xf4b9910d2faca36f,
		"pods:3:4:2#2":             0xf97147dfe3352fed,
		"random:10:0.2#0":          0x19bf4b3d2568d4a6,
		"random:10:0.2#1":          0xdc8cbaf252eb6c42,
		"random:10:0.2#2":          0xee77212a6b1c6b06,
		"ring:6#0":                 0xde17e0c2f727bd23,
		"ring:9+chords":            0x364ae1c703c4216e,
		"ring:9+extra:4":           0x21cef571e162be2a,
		"ring:9+randomextra:0.3":   0x200b7db8d183e301,
		"star:6#0":                 0xfccb25e50f563fa6,
		"starlines:3x2#0":          0x90af710db416dd42,
		"tree:2x2#0":               0xb8b9a99066d02d27,
	}
	got := map[string]uint64{}
	for _, kind := range Topologies() {
		tp, err := ParseTopo(familySpecs[kind])
		if err != nil {
			t.Fatalf("ParseTopo(%q): %v", familySpecs[kind], err)
		}
		for seed := int64(0); seed < 3; seed++ {
			if seed > 0 && tp.buildSeed(seed) == 0 {
				break // the family ignores its seed
			}
			g, err := tp.Build(seed)
			if err != nil {
				t.Fatalf("Build(%s, %d): %v", tp, seed, err)
			}
			got[fmt.Sprintf("%s#%d", tp, seed)] = rowsDigest(g)
		}
	}
	for _, base := range []Topo{{Kind: "ring", N: 9}, {Kind: "grid", Rows: 3, Cols: 3}} {
		g, err := base.Build(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{"randomextra:0.3", "extra:4", "chords"} {
			o, _, err := NewOverlay(spec, g, 1)
			if err != nil {
				t.Fatalf("NewOverlay(%s, %s): %v", spec, base, err)
			}
			got[fmt.Sprintf("%s+%s", base, spec)] = rowsDigest(o)
		}
	}
	fig := graph.BuildFigure1(6, 20)
	got["figure1.A"] = rowsDigest(fig.A)
	got["figure1.B"] = rowsDigest(fig.B)
	got["gadget"] = rowsDigest(fig.Gadget.Build())
	got["K_4"] = rowsDigest(graph.BuildKD(4).G)

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%q: %#x, // rows moved: pinned %#x", name, got[name], want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d graphs digested, %d pinned", len(got), len(want))
	}
}

// TestSeedDeclarations holds every registry entry's seed declaration to
// what the entry builds: one declared seed-free must give the same result
// on seeds 1 and 2 (an algorithm the same sim.Result running sync on
// clique:5, a topology the same rows, an overlay the same edges on
// ring:9), and one that is not must differ — today benor, random,
// expander, pods, randomextra and extra. A wrong seed-free declaration
// would let the sweep caches and the coverage fingerprints merge
// executions that differ.
func TestSeedDeclarations(t *testing.T) {
	check := func(registry, name string, seedFree bool, build func(seed int64) any) {
		switch same := reflect.DeepEqual(build(1), build(2)); {
		case seedFree && !same:
			t.Errorf("%s %q is declared seed-free but differs on seeds 1 and 2", registry, name)
		case !seedFree && same:
			t.Errorf("%s %q is declared to consume the seed but gives the same result on seeds 1 and 2", registry, name)
		}
	}
	for _, algo := range Algorithms() {
		check("algorithm", algo, algorithms[algo].seedFree, func(seed int64) any {
			out, err := Scenario{Algo: algo, Topo: Topo{Kind: "clique", N: 5}, Sched: "sync", Fack: 2, Seed: seed}.Run()
			if err != nil {
				t.Fatal(err)
			}
			return *out.Result
		})
	}
	for _, kind := range Topologies() {
		tp, err := ParseTopo(familySpecs[kind])
		if err != nil {
			t.Fatalf("ParseTopo(%q): %v", familySpecs[kind], err)
		}
		check("topology", kind, topoFamilies[kind].seedFree, func(seed int64) any {
			g, err := tp.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			return rowsDigest(g)
		})
	}
	ring := graph.Ring(9)
	params := map[string]string{"randomextra": ":0.3", "extra": ":4"}
	for _, family := range Overlays() {
		check("overlay", family, overlayFamilies[family].seedFree, func(seed int64) any {
			o, _, err := NewOverlay(family+params[family], ring, seed)
			if err != nil {
				t.Fatal(err)
			}
			if o == nil {
				return uint64(0)
			}
			return rowsDigest(o)
		})
	}
}

// TestSmaller pins the steps explore's shrinker takes: one node fewer on
// the single-size families, down to ring:3 and two nodes for the rest,
// and none on the families shaped by more than a size.
func TestSmaller(t *testing.T) {
	for spec, want := range map[string]string{
		"ring:4": "ring:3", "ring:3": "", "line:3": "line:2", "line:2": "", "clique:5": "clique:4",
		"star:2": "", "random:3:0.5": "random:2:0.5", "random:2:0.5": "",
		"grid:3x3": "", "tree:2x2": "", "starlines:3x2": "", "expander:12:3": "", "pods:3:4:2": "",
	} {
		tp, err := ParseTopo(spec)
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		if smaller, ok := tp.Smaller(); ok {
			got = smaller.String()
		}
		if got != want {
			t.Errorf("%s.Smaller() = %q, want %q", spec, got, want)
		}
	}
}

// TestSeedStreamsDistinct holds the seed-stream block (harness.go) to one
// multiplier per stream, the scheduler's identity map included.
func TestSeedStreamsDistinct(t *testing.T) {
	streams := []struct {
		name string
		f    func(int64) int64
	}{
		{"scheduler", func(seed int64) int64 { return seed }},
		{"overlaySeed", overlaySeed}, {"lossySeed", lossySeed}, {"minorityRandSeed", minorityRandSeed},
		{"expanderSeed", expanderSeed}, {"podsSeed", podsSeed}, {"fallbackSeed", fallbackSeed},
	}
	seen := map[int64]string{}
	for _, s := range streams {
		m := s.f(1) - s.f(0)
		if other, dup := seen[m]; dup {
			t.Errorf("%s and %s share the multiplier %d", s.name, other, m)
		}
		seen[m] = s.name
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
				if out.Violation() != nil {
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
		if a.Violation() != nil {
			t.Errorf("%s on %s: consensus violated: %v", sc.Algo, sc.Topo, a.Report.Errors)
		}
		if !reflect.DeepEqual(a.Result, b.Result) {
			t.Errorf("%s on %s seed %d: two runs of the same scenario differ", sc.Algo, sc.Topo, sc.Seed)
		}
	}
}
