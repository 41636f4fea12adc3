package graph

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(0)
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
	g := New(1)
	if !g.IsConnected() {
		t.Fatal("single node not connected")
	}
	if d := g.Diameter(); d != 0 {
		t.Fatalf("single node diameter = %d, want 0", d)
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
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

func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Graph)
	}{
		{"self-loop", func(g *Graph) { g.AddEdge(1, 1) }},
		{"duplicate", func(g *Graph) { g.AddEdge(0, 1); g.AddEdge(1, 0) }},
		{"out-of-range", func(g *Graph) { g.AddEdge(0, 9) }},
		{"negative", func(g *Graph) { g.AddEdge(-1, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
			}()
			tc.f(New(3))
		})
	}
}

// TestFreezeAllowsConcurrentReads pins the concurrent-reader contract
// the wall-clock substrates rely on: after Freeze, Neighbors/HasEdge
// from many goroutines must be race-free (run under -race to enforce).
// Without Freeze, the first read after a mutation rebuilds the CSR
// lazily and concurrent readers would race on that rebuild.
func TestFreezeAllowsConcurrentReads(t *testing.T) {
	g := Clique(8)
	g.Freeze()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for u := 0; u < g.N(); u++ {
				if len(g.Neighbors(u)) != 7 {
					t.Errorf("worker %d: node %d has %d neighbors", w, u, len(g.Neighbors(u)))
					return
				}
				if !g.HasEdge(u, (u+1)%g.N()) {
					t.Errorf("worker %d: missing clique edge at %d", w, u)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEdgeSetIsLazy: a graph built by ascending appends carries no edge
// set, the set appears at the first non-ascending append or stale
// HasEdge, and duplicate and self-loop rejection, HasEdge and Clone
// answer the same on both sides of that moment.
func TestEdgeSetIsLazy(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	agree := func(when string, g *Graph, edges [][2]int) {
		t.Helper()
		for _, h := range []*Graph{g, g.Clone()} {
			is := map[[2]int]bool{}
			for _, e := range edges {
				is[e], is[[2]int{e[1], e[0]}] = true, true
			}
			for u := 0; u < h.N(); u++ {
				for v := 0; v < h.N(); v++ {
					if h.HasEdge(u, v) != is[[2]int{u, v}] {
						t.Fatalf("%s: HasEdge(%d,%d) = %v", when, u, v, h.HasEdge(u, v))
					}
				}
			}
		}
	}

	// Ascending appends, read only through the fresh CSR: no set, ever.
	g := New(5)
	edges := [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 4}}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	g.Freeze()
	agree("ascending, fresh CSR", g, edges)
	if g.set != nil || g.Clone().set != nil || !g.Sorted() {
		t.Fatal("ascending appends and fresh-CSR reads built an edge set")
	}
	// Duplicates of an ascending log are caught with the set still
	// unbuilt when they arrive: equal to the last append, below it, and
	// with the endpoints swapped.
	for _, e := range [][2]int{{2, 4}, {0, 1}, {2, 1}} {
		h := g.Clone()
		if h.set != nil {
			t.Fatal("clone of a set-less graph has a set")
		}
		mustPanic("duplicate on the lazy path", func() { h.AddEdge(e[0], e[1]) })
	}
	mustPanic("self-loop on the lazy path", func() { g.Clone().AddEdge(2, 2) })

	// A stale HasEdge materialises the set; answers do not change.
	g.AddEdge(3, 4)
	edges = append(edges, [2]int{3, 4})
	if g.set != nil {
		t.Fatal("an ascending append built the set")
	}
	agree("stale", g, edges)
	if g.set == nil {
		t.Fatal("stale HasEdge answered without the set")
	}
	// A non-ascending append does too, on a graph that never probed.
	h := Clique(4).Clone()
	h2 := New(4)
	h2.AddEdge(2, 3)
	h2.AddEdge(0, 1)
	h2.AddEdge(0, 3)
	h2.AddEdge(0, 2) // below last[0] = 3
	if h.set != nil || h2.set == nil || h2.Sorted() {
		t.Fatalf("set built: clique clone %v, non-ascending %v (sorted=%v)", h.set != nil, h2.set != nil, h2.Sorted())
	}
	agree("non-ascending", h2, [][2]int{{2, 3}, {0, 1}, {0, 3}, {0, 2}})
	// With the set in place every append goes through it, ascending or
	// not, and both panics still fire.
	h2.AddEdge(1, 2)
	mustPanic("duplicate with the set built", func() { h2.AddEdge(2, 1) })
	mustPanic("duplicate of a pre-set edge", func() { h2.AddEdge(1, 0) })
	mustPanic("self-loop with the set built", func() { h2.AddEdge(3, 3) })
	agree("after the set", h2, [][2]int{{2, 3}, {0, 1}, {0, 3}, {0, 2}, {1, 2}})
}

// TestCliqueDiameterByCount: a complete graph's diameter is read off its
// edge count — including above exactDiameterLimit, where the estimator
// would otherwise run — and near-complete graphs still take the traversal.
func TestCliqueDiameterByCount(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{1, 0}, {2, 1}, {1500, 1}} {
		g := Clique(tc.n)
		if d := g.Diameter(); d != tc.want {
			t.Fatalf("Clique(%d).Diameter() = %d, want %d", tc.n, d, tc.want)
		}
		if g.set != nil {
			t.Fatalf("Clique(%d) or its Diameter built the edge set", tc.n)
		}
	}
	g := New(4) // K4 minus {2,3}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}} {
		g.AddEdge(e[0], e[1])
	}
	if d := g.Diameter(); d != 2 {
		t.Fatalf("K4 minus an edge: diameter %d, want 2", d)
	}
	if d := New(2).Diameter(); d != -1 {
		t.Fatalf("two isolated nodes: diameter %d, want -1", d)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Line(4)
	c := g.Clone()
	c.AddEdge(0, 3)
	if g.HasEdge(0, 3) {
		t.Fatal("mutating clone changed original")
	}
	if g.M() != 3 || c.M() != 4 {
		t.Fatalf("edge counts: orig=%d clone=%d", g.M(), c.M())
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
	g := New(4)
	g.AddEdge(0, 1)
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
