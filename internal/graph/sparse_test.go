package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// edgesOf flattens a graph back to its normalized (min,max) edge set in
// canonical order, for byte-level determinism comparisons.
func edgesOf(g *Graph) [][2]int {
	var es [][2]int
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				es = append(es, [2]int{u, v})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	return es
}

// TestHasEdgeSortedAndUnsorted drives both HasEdge paths: the binary
// search over ascending rows and the scan of rows that are not. Both must
// agree with a brute-force reference on every pair.
func TestHasEdgeSortedAndUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 17
	ref := make(map[int64]bool)
	var pairs [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(3) == 0 {
				pairs = append(pairs, [2]int{u, v})
				ref[edgeKey(u, v)] = true
			}
		}
	}
	sorted := Build(n, pairs) // edges in ascending order: rows ascending
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	for i, e := range pairs {
		pairs[i] = [2]int{e[1], e[0]} // reversed endpoints too
	}
	unsorted := Build(n, pairs) // same edges, shuffled
	if !sorted.sorted {
		t.Fatal("ascending edge list did not yield sorted rows")
	}
	if unsorted.sorted {
		t.Fatal("shuffled edge list claims sorted rows")
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			want := u != v && ref[edgeKey(u, v)]
			if got := sorted.HasEdge(u, v); got != want {
				t.Fatalf("sorted graph HasEdge(%d,%d) = %v, want %v", u, v, got, want)
			}
			if got := unsorted.HasEdge(u, v); got != want {
				t.Fatalf("unsorted graph HasEdge(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

// TestCSRMatchesAdjacencyList hands random edge lists to Build and
// appends the same edges to a shadow adjacency list, each edge to both
// endpoints' rows: every CSR row must come back in exactly that order
// (the delivery-plan schedulers draw per-neighbor randomness by row
// index, so row order is part of the determinism contract).
func TestCSRMatchesAdjacencyList(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(14)
		var edges [][2]int
		shadow := make([][]int, n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(2) == 0 {
					a, b := u, v
					if rng.Intn(2) == 0 {
						a, b = b, a
					}
					edges = append(edges, [2]int{a, b})
					shadow[a] = append(shadow[a], b)
					shadow[b] = append(shadow[b], a)
				}
			}
		}
		if trial%3 == 0 {
			// Not in pair order either: rows must follow the list.
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			shadow = make([][]int, n)
			for _, e := range edges {
				shadow[e[0]] = append(shadow[e[0]], e[1])
				shadow[e[1]] = append(shadow[e[1]], e[0])
			}
		}
		g := Build(n, edges)
		if g.M() != len(edges) {
			t.Fatalf("trial %d: M = %d, want %d", trial, g.M(), len(edges))
		}
		for u := 0; u < n; u++ {
			got := g.Neighbors(u)
			if len(got) != g.Degree(u) {
				t.Fatalf("trial %d: row %d has %d entries, degree %d", trial, u, len(got), g.Degree(u))
			}
			if len(got) == 0 && len(shadow[u]) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, shadow[u]) {
				t.Fatalf("trial %d: row %d = %v, want edge-list order %v", trial, u, got, shadow[u])
			}
		}
	}
}

// TestSortCanonicalizes: FromEdges over an edge list in any order and
// orientation yields ascending rows over the same edge set, and over a
// list that is already canonical it is Build.
func TestSortCanonicalizes(t *testing.T) {
	list := [][2]int{{4, 1}, {0, 5}, {2, 0}, {3, 4}, {1, 0}}
	if Build(6, list).sorted {
		t.Fatal("Build reordered rows it was given unsorted")
	}
	g := FromEdges(6, list)
	if !g.sorted {
		t.Fatal("FromEdges did not mark rows sorted")
	}
	for u := 0; u < g.N(); u++ {
		row := g.Neighbors(u)
		if !sort.IntsAreSorted(row) {
			t.Fatalf("row %d not ascending: %v", u, row)
		}
	}
	if !reflect.DeepEqual(edgesOf(g), edgesOf(Build(6, list))) {
		t.Fatal("FromEdges changed the edge set")
	}

	canonical := [][2]int{{0, 1}, {0, 4}, {1, 2}, {2, 3}}
	s, b := FromEdges(5, canonical), Build(5, canonical)
	if !s.sorted || !b.sorted {
		t.Fatal("a canonical list did not build sorted rows")
	}
	for u := 0; u < s.N(); u++ {
		if !reflect.DeepEqual(s.Neighbors(u), b.Neighbors(u)) {
			t.Fatalf("row %d: FromEdges %v, Build %v", u, s.Neighbors(u), b.Neighbors(u))
		}
	}
}

// TestFromEdgesNormalizes checks endpoint normalization and that the
// caller's slice is left untouched.
func TestFromEdgesNormalizes(t *testing.T) {
	in := [][2]int{{3, 1}, {2, 0}}
	g := FromEdges(4, in)
	if !g.HasEdge(1, 3) || !g.HasEdge(0, 2) || g.M() != 2 {
		t.Fatalf("FromEdges lost edges: M=%d", g.M())
	}
	if in[0] != [2]int{3, 1} || in[1] != [2]int{2, 0} {
		t.Fatalf("FromEdges mutated its input: %v", in)
	}
}

// TestExpanderProperties checks regularity, connectivity, diameter
// sanity and sortedness for a spread of sizes including odd n with even
// n*d and degrees above n/2, where the pairing would not close.
func TestExpanderProperties(t *testing.T) {
	cases := []struct{ n, d int }{{8, 3}, {10, 4}, {65, 4}, {128, 3}, {256, 8},
		{9, 6}, {16, 14}, {12, 11}, {128, 100}} // dense: complements
	for _, tc := range cases {
		g := Expander(tc.n, tc.d, 5)
		if g.N() != tc.n || g.M() != tc.n*tc.d/2 {
			t.Fatalf("expander(%d,%d): N=%d M=%d", tc.n, tc.d, g.N(), g.M())
		}
		for u := 0; u < tc.n; u++ {
			if g.Degree(u) != tc.d {
				t.Fatalf("expander(%d,%d): degree(%d) = %d", tc.n, tc.d, u, g.Degree(u))
			}
		}
		if !g.IsConnected() {
			t.Fatalf("expander(%d,%d) disconnected", tc.n, tc.d)
		}
		if !g.sorted {
			t.Fatalf("expander(%d,%d) rows not sorted by construction", tc.n, tc.d)
		}
		if d := g.Diameter(); d < 1 || d > tc.n {
			t.Fatalf("expander(%d,%d) diameter = %d", tc.n, tc.d, d)
		}
	}
}

// TestPodsProperties checks size, connectivity, the edge budget
// (intra-pod rings plus at most c cross links per pod) and sortedness.
func TestPodsProperties(t *testing.T) {
	cases := []struct{ p, k, c int }{{1, 1, 0}, {1, 7, 0}, {2, 1, 1}, {4, 2, 2}, {8, 16, 3}, {16, 8, 4}}
	for _, tc := range cases {
		g := Pods(tc.p, tc.k, tc.c, 9)
		n := tc.p * tc.k
		if g.N() != n {
			t.Fatalf("pods(%d,%d,%d): N=%d, want %d", tc.p, tc.k, tc.c, g.N(), n)
		}
		if !g.IsConnected() {
			t.Fatalf("pods(%d,%d,%d) disconnected", tc.p, tc.k, tc.c)
		}
		intra := tc.k - 1
		if tc.k >= 3 {
			intra = tc.k
		}
		if maxM := tc.p*intra + tc.p*tc.c; g.M() > maxM {
			t.Fatalf("pods(%d,%d,%d): M=%d exceeds budget %d", tc.p, tc.k, tc.c, g.M(), maxM)
		}
		if !g.sorted {
			t.Fatalf("pods(%d,%d,%d) rows not sorted by construction", tc.p, tc.k, tc.c)
		}
		// No edge may leave a pod except via the cross-link budget: every
		// node keeps its ring degree <= 2 plus cross links.
		cross := 0
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(u) {
				if u < v && u/tc.k != v/tc.k {
					cross++
				}
			}
		}
		if cross > tc.p*tc.c {
			t.Fatalf("pods(%d,%d,%d): %d cross edges exceed budget %d", tc.p, tc.k, tc.c, cross, tc.p*tc.c)
		}
	}
}

// TestSparseFamilyDeterminism builds each seeded sparse family twice
// concurrently — same seed must give byte-identical edge lists (and the
// concurrency makes the determinism claim checkable under -race), while
// a different seed must diverge.
func TestSparseFamilyDeterminism(t *testing.T) {
	builds := map[string]func(seed int64) *Graph{
		"expander": func(seed int64) *Graph { return Expander(64, 4, seed) },
		"pods":     func(seed int64) *Graph { return Pods(8, 8, 2, seed) },
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			ch := make(chan [][2]int, 2)
			for i := 0; i < 2; i++ {
				go func() { ch <- edgesOf(build(77)) }()
			}
			a, b := <-ch, <-ch
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same seed produced different edge lists")
			}
			if reflect.DeepEqual(a, edgesOf(build(78))) {
				t.Fatal("different seeds produced identical graphs (suspicious)")
			}
		})
	}
}

func TestSparseFamilyPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"expander-d2", func() { Expander(8, 2, 1) }},
		{"expander-d>=n", func() { Expander(4, 4, 1) }},
		{"expander-odd", func() { Expander(5, 3, 1) }},
		{"pods-p0", func() { Pods(0, 3, 1, 1) }},
		{"pods-k0", func() { Pods(3, 0, 1, 1) }},
		{"pods-nocross", func() { Pods(3, 4, 0, 1) }},
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

// TestDiameterEstimateLargeGraph cross-checks the bounded-effort
// estimator against the exact all-pairs answer on graphs just past the
// exact-path cutoff. The estimator reports a certified lower bound, so
// it may only ever undershoot — and on these families the double sweep
// is known to land exactly.
func TestDiameterEstimateLargeGraph(t *testing.T) {
	if exactDiameterLimit >= 600 {
		t.Skip("exact path covers the test sizes; estimator unreachable")
	}
	for name, g := range map[string]*Graph{
		"line":     Line(exactDiameterLimit + 90),
		"ring":     Ring(exactDiameterLimit + 88),
		"expander": Expander(exactDiameterLimit+88, 4, 3),
		"pods":     Pods(40, 15, 3, 3),
	} {
		est := g.Diameter()
		want := g.diameterExact()
		if est > want {
			t.Fatalf("%s: estimate %d exceeds exact diameter %d (lower bound violated)", name, est, want)
		}
		if est != want {
			t.Logf("%s: estimate %d vs exact %d (allowed, but worth knowing)", name, est, want)
		}
		if name == "line" || name == "ring" {
			// Double sweep is provably exact on trees and cycles.
			if est != want {
				t.Fatalf("%s: estimate %d != exact %d on a family where double sweep is exact", name, est, want)
			}
		}
	}
}
