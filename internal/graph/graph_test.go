package graph

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewEmpty(t *testing.T) {
	g := Build(0, nil)
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: N=%d M=%d", g.N(), g.M())
	}
	if g.IsConnected() {
		t.Fatal("empty graph reported connected")
	}
	if g.Diameter() != -1 {
		t.Fatalf("empty graph diameter = %d, want -1", g.Diameter())
	}
}

func TestSingleNode(t *testing.T) {
	g := Build(1, nil)
	if !g.IsConnected() {
		t.Fatal("single node not connected")
	}
	if d := g.Diameter(); d != 0 {
		t.Fatalf("single node diameter = %d, want 0", d)
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := Build(3, [][2]int{{0, 1}, {1, 2}})
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge {0,1} missing")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge {0,2}")
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Fatalf("degrees: %v", g.DegreeSequence())
	}
}

// tooManyEdges is an edge list Build must refuse on its length alone,
// before it reads an edge or sizes an array from it. A real list that long
// is 16 GB, so this is a one-edge array under a header claiming
// MaxInt32/2+1 entries — which the race job's pointer checks would
// rightly refuse to construct, hence the directive.
//
//go:nocheckptr
func tooManyEdges() [][2]int {
	one := make([][2]int, 1)
	return unsafe.Slice(&one[0], math.MaxInt32/2+1)
}

// TestAddEdgePanics is Build's table of refused inputs — the checks
// AddEdge made one edge at a time, now made over the whole list.
func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges [][2]int
	}{
		{"self-loop", 3, [][2]int{{0, 1}, {1, 1}}},
		{"duplicate", 3, [][2]int{{0, 1}, {1, 0}}}, // reversed, rows ascending
		{"duplicate-same-orientation", 3, [][2]int{{0, 1}, {0, 2}, {0, 1}}},
		{"duplicate-unsorted-rows", 3, [][2]int{{0, 2}, {0, 1}, {0, 2}}},
		{"duplicate-unsorted-rows-reversed", 4, [][2]int{{2, 3}, {0, 3}, {0, 1}, {3, 0}}},
		{"out-of-range", 3, [][2]int{{0, 9}}},
		{"negative", 3, [][2]int{{-1, 0}}},
		{"negative-n", -1, nil},
		{"too-many-edges", 2, tooManyEdges()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
			}()
			Build(tc.n, tc.edges)
		})
	}
}

// TestFreezeAllowsConcurrentReads: a graph straight out of its
// constructor — ascending rows and the ring's — is read by eight
// goroutines at once with nothing in between (there is no Freeze to
// forget any more; the race job is what enforces this).
func TestFreezeAllowsConcurrentReads(t *testing.T) {
	for _, tc := range []struct {
		g         *Graph
		deg, diam int
	}{{Clique(8), 7, 1}, {Ring(8), 2, 4}} {
		g, deg, diam := tc.g, tc.deg, tc.diam
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for u := 0; u < g.N(); u++ {
					if len(g.Neighbors(u)) != deg || g.Degree(u) != deg {
						t.Errorf("worker %d: node %d has %d neighbors, degree %d", w, u, len(g.Neighbors(u)), g.Degree(u))
						return
					}
					if !g.HasEdge(u, (u+1)%g.N()) {
						t.Errorf("worker %d: missing edge at %d", w, u)
						return
					}
				}
				if d := g.Diameter(); d != diam {
					t.Errorf("worker %d: diameter %d, want %d", w, d, diam)
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestCliqueDiameterByCount: a complete graph's diameter is read off its
// edge count — including above exactDiameterLimit, where the estimator
// would otherwise run — and near-complete graphs still take the traversal.
func TestCliqueDiameterByCount(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{1, 0}, {2, 1}, {1500, 1}} {
		if d := Clique(tc.n).Diameter(); d != tc.want {
			t.Fatalf("Clique(%d).Diameter() = %d, want %d", tc.n, d, tc.want)
		}
	}
	g := Build(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}}) // K4 minus {2,3}
	if d := g.Diameter(); d != 2 {
		t.Fatalf("K4 minus an edge: diameter %d, want 2", d)
	}
	if d := Build(2, nil).Diameter(); d != -1 {
		t.Fatalf("two isolated nodes: diameter %d, want -1", d)
	}
}

func TestFamilies(t *testing.T) {
	cases := []struct {
		name      string
		g         *Graph
		wantN     int
		wantM     int
		wantDiam  int
		connected bool
	}{
		{"clique4", Clique(4), 4, 6, 1, true},
		{"clique1", Clique(1), 1, 0, 0, true},
		{"line5", Line(5), 5, 4, 4, true},
		{"line1", Line(1), 1, 0, 0, true},
		{"ring6", Ring(6), 6, 6, 3, true},
		{"ring5", Ring(5), 5, 5, 2, true},
		{"star7", Star(7), 7, 6, 2, true},
		{"grid3x4", Grid(3, 4), 12, 17, 5, true},
		{"grid1x6", Grid(1, 6), 6, 5, 5, true},
		{"tree2x3", BalancedTree(2, 3), 15, 14, 6, true},
		{"tree3x2", BalancedTree(3, 2), 13, 12, 4, true},
		{"tree1x4", BalancedTree(1, 4), 5, 4, 4, true},
		{"starlines3x4", StarOfLines(3, 4), 13, 12, 8, true},
		{"starlines1x1", StarOfLines(1, 1), 2, 1, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.N(); got != tc.wantN {
				t.Errorf("N = %d, want %d", got, tc.wantN)
			}
			if got := tc.g.M(); got != tc.wantM {
				t.Errorf("M = %d, want %d", got, tc.wantM)
			}
			if got := tc.g.Diameter(); got != tc.wantDiam {
				t.Errorf("diameter = %d, want %d", got, tc.wantDiam)
			}
			if got := tc.g.IsConnected(); got != tc.connected {
				t.Errorf("connected = %v, want %v", got, tc.connected)
			}
		})
	}
}

func TestFamilyPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"ring2", func() { Ring(2) }},
		{"grid0", func() { Grid(0, 3) }},
		{"tree-branch0", func() { BalancedTree(0, 2) }},
		{"starlines0", func() { StarOfLines(0, 1) }},
		{"random0", func() { RandomConnected(0, 0.1, 1) }},
		{"random-badp", func() { RandomConnected(4, 1.5, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
			}()
			tc.f()
		})
	}
}

func TestBFSLine(t *testing.T) {
	g := Line(5)
	dist := g.BFS(0)
	for i, d := range dist {
		if d != i {
			t.Fatalf("dist[%d] = %d, want %d", i, d, i)
		}
	}
	if got := g.Dist(1, 4); got != 3 {
		t.Fatalf("Dist(1,4) = %d, want 3", got)
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := Build(4, [][2]int{{0, 1}})
	dist := g.BFS(0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Fatalf("unreachable nodes got distances %v", dist)
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	if g.Eccentricity(0) != -1 {
		t.Fatal("eccentricity on disconnected graph should be -1")
	}
}

func TestRandomConnectedProperties(t *testing.T) {
	check := func(n uint8, p uint16, seed int64) bool {
		nn := int(n%40) + 1
		pp := float64(p) / 65535.0
		g := RandomConnected(nn, pp, seed)
		return g.N() == nn && g.IsConnected() && g.M() >= nn-1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomConnectedDeterministic(t *testing.T) {
	a := RandomConnected(25, 0.1, 42)
	b := RandomConnected(25, 0.1, 42)
	if a.M() != b.M() {
		t.Fatalf("same seed, different edge counts %d vs %d", a.M(), b.M())
	}
	for u := 0; u < a.N(); u++ {
		for v := u + 1; v < a.N(); v++ {
			if a.HasEdge(u, v) != b.HasEdge(u, v) {
				t.Fatalf("same seed, edge {%d,%d} differs", u, v)
			}
		}
	}
	c := RandomConnected(25, 0.1, 43)
	same := true
	for u := 0; u < a.N() && same; u++ {
		for v := u + 1; v < a.N(); v++ {
			if a.HasEdge(u, v) != c.HasEdge(u, v) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs (suspicious)")
	}
}

func TestDegreeSequenceSorted(t *testing.T) {
	g := Star(5)
	seq := g.DegreeSequence()
	want := []int{1, 1, 1, 1, 4}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("degree sequence %v, want %v", seq, want)
		}
	}
}

func TestRandomOverlayDisjoint(t *testing.T) {
	g := RandomConnected(20, 0.15, 3)
	o := RandomOverlay(g, 15, 4)
	if o.N() != g.N() {
		t.Fatalf("overlay N = %d, want %d", o.N(), g.N())
	}
	if o.M() != 15 {
		t.Fatalf("overlay M = %d, want 15", o.M())
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range o.Neighbors(u) {
			if g.HasEdge(u, v) {
				t.Fatalf("overlay edge {%d,%d} overlaps the base graph", u, v)
			}
		}
	}
}

func TestRandomOverlayCapped(t *testing.T) {
	g := Clique(4) // no non-edges at all
	o := RandomOverlay(g, 10, 1)
	if o.M() != 0 {
		t.Fatalf("overlay of a clique has %d edges", o.M())
	}
	line := Line(3) // exactly one non-edge {0,2}
	o = RandomOverlay(line, 10, 1)
	if o.M() != 1 || !o.HasEdge(0, 2) {
		t.Fatalf("overlay of line(3): M=%d", o.M())
	}
}

func TestRandomOverlayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RandomOverlay(Line(3), -1, 1)
}
