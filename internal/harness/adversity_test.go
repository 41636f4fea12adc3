package harness

import (
	"reflect"
	"testing"

	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
)

func TestNewCrashesPatterns(t *testing.T) {
	cases := []struct {
		spec string
		want []sim.Crash
	}{
		{"", nil},
		{"none", nil},
		{"one@0", []sim.Crash{{Node: 7, At: 0}}},
		{"one@13", []sim.Crash{{Node: 7, At: 13}}},
		{"maxid@0", []sim.Crash{{Node: 7, At: 0}}},
		{"maxid@13", []sim.Crash{{Node: 7, At: 13}}},
		{"coordinator", []sim.Crash{{Node: 0, At: 4}}},
		{"midbroadcast", []sim.Crash{{Node: 0, At: 2}}},
	}
	for _, tc := range cases {
		got, err := NewCrashes(tc.spec, 8, 4, 1)
		if err != nil {
			t.Fatalf("NewCrashes(%q): %v", tc.spec, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("NewCrashes(%q) = %v, want %v", tc.spec, got, tc.want)
		}
	}
	// midbroadcast clamps into the first window even for Fack=1.
	got, err := NewCrashes("midbroadcast", 4, 1, 1)
	if err != nil || len(got) != 1 || got[0].At != 1 {
		t.Fatalf("midbroadcast at Fack=1: %v, %v", got, err)
	}
}

func TestNewCrashesMinorityRand(t *testing.T) {
	const n, fack = 9, 4
	a, err := NewCrashes("minorityrand", n, fack, 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := (n - 1) / 2; len(a) != want {
		t.Fatalf("minorityrand crashed %d nodes, want %d", len(a), want)
	}
	seen := map[int]bool{}
	for _, c := range a {
		if c.Node < 0 || c.Node >= n || seen[c.Node] {
			t.Fatalf("bad or duplicate crash node in %v", a)
		}
		seen[c.Node] = true
		if c.At < 0 || c.At > 4*fack {
			t.Fatalf("crash time %d outside [0, %d]", c.At, 4*fack)
		}
	}
	b, _ := NewCrashes("minorityrand", n, fack, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("minorityrand is not deterministic for a fixed seed")
	}
	c, _ := NewCrashes("minorityrand", n, fack, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("minorityrand ignores the seed")
	}
	// A 1- or 2-node network has no crashable minority.
	if got, _ := NewCrashes("minorityrand", 2, fack, 7); len(got) != 0 {
		t.Fatalf("minorityrand on n=2 crashed %v", got)
	}
}

func TestNewCrashesErrors(t *testing.T) {
	for _, spec := range []string{
		"nope", "one", "one@", "one@x", "one@-3", "maxid", "maxid@", "maxid@-1",
		"coordinator@2", "none@1", "minorityrand@5",
	} {
		if _, err := NewCrashes(spec, 8, 4, 1); err == nil {
			t.Errorf("NewCrashes(%q) accepted", spec)
		}
	}
}

func TestNewOverlayFamilies(t *testing.T) {
	base := graph.Ring(10)

	o, p, err := NewOverlay("", base, 1)
	if err != nil || o != nil || p != DefaultOverlayDeliverP {
		t.Fatalf("empty spec: %v, %v, %v", o, p, err)
	}

	o, p, err = NewOverlay("chords@0.8", base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0.8 {
		t.Fatalf("delivery probability %v, want 0.8", p)
	}
	if o.M() != 5 {
		t.Fatalf("ring:10 chords overlay has %d edges, want 5 antipodal chords", o.M())
	}

	o, _, err = NewOverlay("extra:7", base, 3)
	if err != nil {
		t.Fatal(err)
	}
	if o.M() != 7 {
		t.Fatalf("extra:7 overlay has %d edges", o.M())
	}

	// randomextra:1 must take every non-edge; randomextra:0 none.
	o, _, err = NewOverlay("randomextra:1", base, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10*9/2 - base.M(); o.M() != want {
		t.Fatalf("randomextra:1 overlay has %d edges, want all %d non-edges", o.M(), want)
	}
	o, _, err = NewOverlay("randomextra:0", base, 3)
	if err != nil || o.M() != 0 {
		t.Fatalf("randomextra:0: %d edges, %v", o.M(), err)
	}

	// Every family is edge-disjoint from the base.
	for _, spec := range []string{"chords", "extra:5", "randomextra:0.5"} {
		o, _, err := NewOverlay(spec, base, 9)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for u := 0; u < base.N(); u++ {
			for _, v := range o.Neighbors(u) {
				if base.HasEdge(u, v) {
					t.Fatalf("%s: edge {%d,%d} overlaps the base", spec, u, v)
				}
			}
		}
	}

	// Determinism per seed.
	a, _, _ := NewOverlay("randomextra:0.4", base, 5)
	b, _, _ := NewOverlay("randomextra:0.4", base, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("overlay construction is not deterministic for a fixed seed")
	}
}

func TestNewOverlayErrors(t *testing.T) {
	base := graph.Ring(6)
	for _, spec := range []string{
		"nope", "randomextra", "randomextra:x", "randomextra:1.5", "extra:-1", "extra:x",
		"chords:3", "none:1", "chords@x", "chords@1.5", "chords@-0.1",
	} {
		if _, _, err := NewOverlay(spec, base, 1); err == nil {
			t.Errorf("NewOverlay(%q) accepted", spec)
		}
	}
}

// TestScenarioConfigWiresAdversity pins the assembly: a scenario naming a
// crash pattern and an overlay produces a config with the crash schedule,
// the unreliable dual graph, and a lossy scheduler wrapper.
func TestScenarioConfigWiresAdversity(t *testing.T) {
	sc := Scenario{
		Algo: "wpaxos", Topo: Topo{Kind: "ring", N: 8}, Sched: "random",
		Fack: 4, Seed: 2, Crashes: "midbroadcast", Overlay: "chords@0.7",
	}
	cfg, err := sc.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg.Crashes, []sim.Crash{{Node: 0, At: 2}}) {
		t.Fatalf("crashes %v", cfg.Crashes)
	}
	if cfg.Unreliable == nil || cfg.Unreliable.M() != 4 {
		t.Fatalf("unreliable graph %+v, want the 4 antipodal chords of ring:8", cfg.Unreliable)
	}
	lossy, ok := cfg.Scheduler.(*sim.Lossy)
	if !ok {
		t.Fatalf("scheduler %T, want *sim.Lossy wrapping the base", cfg.Scheduler)
	}
	if lossy.P != 0.7 {
		t.Fatalf("lossy delivery probability %v, want 0.7", lossy.P)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("assembled adversity config invalid: %v", err)
	}

	// No overlay: no lossy wrapper.
	sc.Overlay = ""
	cfg, err = sc.Config()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.Scheduler.(*sim.Lossy); ok {
		t.Fatal("overlay-free scenario got a lossy scheduler")
	}
	if cfg.Unreliable != nil {
		t.Fatal("overlay-free scenario got an unreliable graph")
	}
}

func TestScenarioAdversityErrors(t *testing.T) {
	base := Scenario{Algo: "wpaxos", Topo: Topo{Kind: "clique", N: 4}, Sched: "sync", Fack: 4, Seed: 1}
	bad := []Scenario{
		func() Scenario { s := base; s.Crashes = "nope"; return s }(),
		func() Scenario { s := base; s.Crashes = "one"; return s }(),
		func() Scenario { s := base; s.Overlay = "nope"; return s }(),
		func() Scenario { s := base; s.Overlay = "randomextra:2"; return s }(),
	}
	for i, s := range bad {
		if _, err := s.Config(); err == nil {
			t.Errorf("case %d: invalid adversity scenario accepted", i)
		}
	}
}

// TestScenarioRunUnderAdversity runs a crash-tolerant algorithm under a
// crash pattern plus overlay and checks the survivor-aware report: the
// crash count lands in the report, survivors decide, and the run is
// correct despite the fault.
func TestScenarioRunUnderAdversity(t *testing.T) {
	out, err := Scenario{
		Algo: "wpaxos", Topo: Topo{Kind: "clique", N: 8}, Sched: "random",
		Fack: 4, Seed: 3, Crashes: "coordinator",
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation() != nil {
		t.Fatalf("wpaxos under a coordinator crash violated consensus: %v", out.Report.Errors)
	}
	if out.Report.Crashed != 1 {
		t.Fatalf("crashed %d, want 1", out.Report.Crashed)
	}
	if out.Report.SurvivorDecideTime < 0 {
		t.Fatal("no survivor decision recorded")
	}
	if !out.Result.Crashed[0] {
		t.Fatal("coordinator (node 0) not crashed")
	}
}

func TestGridFaultAxes(t *testing.T) {
	g := Grid{
		Algos:    []string{"wpaxos"},
		Topos:    []Topo{{Kind: "clique", N: 6}},
		Scheds:   []string{"random"},
		Facks:    []int64{4},
		Crashes:  []string{"none", "coordinator"},
		Overlays: []string{"none", "extra:2"},
		Seeds:    []int64{1, 2, 3},
	}
	work := mustCells(t, g)
	if want := 2 * 2; len(work) != want {
		t.Fatalf("expanded %d cells, want %d", len(work), want)
	}
	// The overlay axis is innermost; seeds replicate inside each cell.
	if a, b := work[0].Base, work[1].Base; a.Crashes != b.Crashes || a.Overlay == b.Overlay || len(work[0].Seeds) != 3 {
		t.Fatalf("overlay is not the innermost axis: %+v then %+v", work[0], work[1])
	}

	cells := mustSweep(t, g, 4)
	if len(cells) != 4 {
		t.Fatalf("%d cells, want 4 (2 crash x 2 overlay)", len(cells))
	}
	for _, c := range cells {
		if c.Runs != 3 {
			t.Errorf("cell %s/%s: %d runs, want 3", c.Crashes, c.Overlay, c.Runs)
		}
		if !c.OK() {
			t.Errorf("cell %s/%s: %v", c.Crashes, c.Overlay, c.Errors)
		}
		switch c.Crashes {
		case "none":
			if c.Faults.Max != 0 || c.FaultTerminations != 0 {
				t.Errorf("fault-free cell reports faults: %+v", c)
			}
			if c.SurvivorDecide != c.Decide {
				t.Errorf("fault-free cell: survivor latency %+v differs from %+v", c.SurvivorDecide, c.Decide)
			}
		case "coordinator":
			if c.Faults.Median != 1 {
				t.Errorf("coordinator cell: faults median %v, want 1", c.Faults.Median)
			}
			if c.FaultTerminations != c.Runs {
				t.Errorf("coordinator cell: %d/%d runs terminated despite faults", c.FaultTerminations, c.Runs)
			}
			if c.SurvivorDecide.Median <= 0 {
				t.Errorf("coordinator cell: empty survivor latency %+v", c.SurvivorDecide)
			}
		}
	}
}
