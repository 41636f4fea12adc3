// Package graph provides the topology substrate for the abstract MAC layer
// model: general undirected graphs, the standard families used by the
// paper's analysis (cliques, lines, grids, random connected graphs), the
// large-n sparse families (random regular expanders, multi-pod meshes),
// and faithful constructions of the paper's lower-bound networks
// (Figure 1's gadget networks A and B, Figure 2's K_D network).
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Graph is a simple undirected graph over nodes 0..N()-1, stored in
// compressed-sparse-row (CSR) form: one offsets array plus one packed
// neighbors array, so a node's adjacency row is a contiguous slice and a
// whole-graph traversal walks two flat arrays instead of chasing n
// slice headers.
//
// A graph is built once, by Build or FromEdges from a whole edge list,
// and is immutable afterwards — the paper's topology is fixed for an
// execution (Section 2). No method writes a field, so a graph may be
// shared by any number of concurrent readers with no preparation. The
// zero value is the empty graph.
//
// Adjacency rows are in edge-list order — each edge appends v to u's row
// and u to v's, in the order the list gives them — because delivery plans
// are positional over Neighbors and the pinned golden executions depend
// on that order. FromEdges lists the edges canonically, which makes every
// row ascending; so does every family constructor except Ring and
// RandomConnected.
type Graph struct {
	n, m int
	// nbrs[off[u]:off[u+1]] is u's adjacency row.
	off  []int32
	nbrs []int
	// sorted: every row is ascending, so HasEdge may binary-search.
	sorted bool
}

// Build returns the graph on n nodes with the given undirected edges,
// adjacency rows in edge-list order. A self-loop, a duplicate edge (in
// either orientation), an endpoint outside [0,n), a negative n or more
// edges than the int32 row offsets can address panic: topology
// construction bugs must fail loudly rather than silently distort an
// experiment. The edge list is only read.
func Build(n int, edges [][2]int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	m := len(edges)
	if m > math.MaxInt32/2 {
		panic(fmt.Sprintf("graph: %d edges: row offsets 2*m do not fit int32", m))
	}
	g := &Graph{n: n, m: m, off: make([]int32, n+1), nbrs: make([]int, 2*m), sorted: true}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			panic(fmt.Sprintf("graph: self-loop at node %d", u))
		}
		g.check(u)
		g.check(v)
		g.off[u+1]++
		g.off[v+1]++
	}
	for u := 0; u < n; u++ {
		g.off[u+1] += g.off[u]
	}
	// Filling in edge-list order appends to both endpoints' rows in the
	// order an adjacency list built edge by edge would.
	cur := make([]int32, n)
	copy(cur, g.off)
	for _, e := range edges {
		u, v := e[0], e[1]
		g.nbrs[cur[u]] = v
		cur[u]++
		g.nbrs[cur[v]] = u
		cur[v]++
	}
	// A duplicate edge is a repeated neighbor in a row. A strictly
	// ascending row has none; any other row is checked on a sorted copy.
	var scratch []int
	for u := 0; u < n; u++ {
		row := g.row(u)
		if strictlyAscending(row) {
			continue
		}
		scratch = append(scratch[:0], row...)
		sort.Ints(scratch)
		for i := 1; i < len(scratch); i++ {
			if scratch[i] == scratch[i-1] {
				panic(fmt.Sprintf("graph: duplicate edge {%d,%d}", u, scratch[i]))
			}
		}
		g.sorted = false
	}
	return g
}

func strictlyAscending(row []int) bool {
	for i := 1; i < len(row); i++ {
		if row[i] <= row[i-1] {
			return false
		}
	}
	return true
}

// FromEdges builds the graph over the edge list in canonical order —
// endpoints normalized to (min,max), edges sorted lexicographically — so
// every adjacency row comes out ascending: a node's smaller neighbors are
// appended while the enumeration passes their rows, then its larger
// neighbors in ascending order. The input slice is not modified.
func FromEdges(n int, edges [][2]int) *Graph {
	es := make([][2]int, len(edges))
	for i, e := range edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		es[i] = [2]int{u, v}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	return Build(n, es)
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, g.n))
	}
}

func (g *Graph) row(u int) []int {
	return g.nbrs[g.off[u]:g.off[u+1]]
}

// HasEdge reports whether {u, v} is an edge, looking for the other
// endpoint in the shorter of the two rows: a binary search when rows are
// ascending, a scan otherwise (the ring's and the random family's rows,
// a few entries long).
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	row := g.row(u)
	if g.sorted {
		i := sort.SearchInts(row, v)
		return i < len(row) && row[i] == v
	}
	for _, w := range row {
		if w == v {
			return true
		}
	}
	return false
}

// Neighbors returns u's adjacency row. The returned slice aliases the
// graph's packed neighbor array and must not be mutated by callers.
func (g *Graph) Neighbors(u int) []int {
	g.check(u)
	return g.row(u)
}

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int {
	g.check(u)
	return int(g.off[u+1] - g.off[u])
}

// BFS returns the hop distance from src to every node; unreachable nodes
// get -1.
func (g *Graph) BFS(src int) []int {
	g.check(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.row(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Dist returns the hop distance between u and v, or -1 when disconnected.
func (g *Graph) Dist(u, v int) int {
	return g.BFS(u)[v]
}

// eccFrom runs one BFS from src into the caller's scratch (dist and queue,
// both length N()) and returns src's eccentricity, or -1 when some node is
// unreachable. Callers reuse the scratch across sources, so a BFS costs no
// allocation.
func (g *Graph) eccFrom(src int, dist, queue []int) int {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue[0] = src
	head, tail := 0, 1
	ecc := 0
	for head < tail {
		u := queue[head]
		head++
		for _, v := range g.row(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				if dist[v] > ecc {
					ecc = dist[v]
				}
				queue[tail] = v
				tail++
			}
		}
	}
	if tail < g.n {
		return -1 // disconnected
	}
	return ecc
}

// Eccentricity returns the maximum distance from u to any node, or -1 when
// the graph is disconnected.
func (g *Graph) Eccentricity(u int) int {
	g.check(u)
	n := g.n
	return g.eccFrom(u, make([]int, n), make([]int, n))
}

// exactDiameterLimit is the node count up to which Diameter runs the
// exact all-pairs BFS. Every golden-pinned topology is far below it, so
// the pinned diameters (and the cell JSON they appear in) are computed by
// the same exact path as before; above it the all-pairs pass would cost
// O(n*m) — prohibitive at n=10^4 — so Diameter switches to the
// double-sweep/iFUB estimator.
const exactDiameterLimit = 512

// diameterBFSBudget caps the number of refinement BFS passes the iFUB
// loop may spend after the three double-sweep passes. On the structured
// and random families in the registry the double sweep alone is almost
// always exact and iFUB certifies it within a few passes; the cap bounds
// the adversarial worst case.
const diameterBFSBudget = 64

// Diameter returns the graph diameter, or -1 when the graph is
// disconnected. A single-node graph has diameter 0, and a graph holding
// all n(n-1)/2 possible edges (the graph is simple, so the count says so)
// has diameter 1 without a traversal.
//
// For n <= exactDiameterLimit the value is computed by exact all-pairs
// BFS with a shared scratch (two allocations total). For larger graphs it
// runs a deterministic double-sweep followed by an iFUB-style refinement
// with a bounded BFS budget: the result is always a valid eccentricity
// (hence a lower bound on the diameter), it is exact whenever the
// refinement converges — which it certifies by matching upper and lower
// bounds — and the effort is O((3+budget)*(n+m)) instead of O(n*m).
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return -1
	}
	if g.n >= 2 && g.M() == g.n*(g.n-1)/2 {
		return 1
	}
	if g.n <= exactDiameterLimit {
		return g.diameterExact()
	}
	return g.diameterEstimate()
}

func (g *Graph) diameterExact() int {
	n := g.n
	dist := make([]int, n)
	queue := make([]int, n)
	diam := 0
	for src := 0; src < n; src++ {
		ecc := g.eccFrom(src, dist, queue)
		if ecc < 0 {
			return -1
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// diameterEstimate is the large-n path: double sweep (BFS from a
// max-degree root, then from the farthest node found) gives a strong
// lower bound; a BFS from the midpoint of the double-sweep path gives an
// upper bound of twice its eccentricity; the iFUB loop then sweeps nodes
// by decreasing midpoint level, raising the lower bound, until the
// remaining levels certify exactness (2*level <= lb) or the BFS budget
// runs out. Every tie breaks to the lowest node index, so the result is
// deterministic.
func (g *Graph) diameterEstimate() int {
	n := g.n
	dist := make([]int, n)
	queue := make([]int, n)

	start := 0
	for u := 1; u < n; u++ {
		if g.Degree(u) > g.Degree(start) {
			start = u
		}
	}
	if g.eccFrom(start, dist, queue) < 0 {
		return -1
	}
	a := argmaxDist(dist)

	distA := make([]int, n)
	lb := g.eccFrom(a, distA, queue)
	b := argmaxDist(distA)

	distB := make([]int, n)
	if ecc := g.eccFrom(b, distB, queue); ecc > lb {
		lb = ecc
	}

	// Midpoint of one a-b shortest path: on the path iff
	// distA[x]+distB[x] == distA[b].
	half := distA[b] / 2
	mid := a
	for x := 0; x < n; x++ {
		if distA[x] == half && distA[x]+distB[x] == distA[b] {
			mid = x
			break
		}
	}
	distM := make([]int, n)
	eccM := g.eccFrom(mid, distM, queue)
	if eccM > lb {
		lb = eccM
	}
	if 2*eccM <= lb {
		return lb
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if distM[order[i]] != distM[order[j]] {
			return distM[order[i]] > distM[order[j]]
		}
		return order[i] < order[j]
	})
	budget := diameterBFSBudget
	for _, x := range order {
		if 2*distM[x] <= lb || budget == 0 {
			break
		}
		if ecc := g.eccFrom(x, dist, queue); ecc > lb {
			lb = ecc
		}
		budget--
	}
	return lb
}

// argmaxDist returns the index of the maximum distance, lowest index on
// ties.
func argmaxDist(dist []int) int {
	best := 0
	for i, d := range dist {
		if d > dist[best] {
			best = i
		}
	}
	return best
}

// IsConnected reports whether the graph is connected. The empty graph is
// considered disconnected.
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return false
	}
	for _, d := range g.BFS(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// DegreeSequence returns the sorted multiset of node degrees.
func (g *Graph) DegreeSequence() []int {
	seq := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		seq[u] = g.Degree(u)
	}
	sort.Ints(seq)
	return seq
}
