// Package graph provides the topology substrate for the abstract MAC layer
// model: general undirected graphs, the standard families used by the
// paper's analysis (cliques, lines, grids, random connected graphs), the
// large-n sparse families (random regular expanders, multi-pod meshes),
// and faithful constructions of the paper's lower-bound networks
// (Figure 1's gadget networks A and B, Figure 2's K_D network).
package graph

import (
	"fmt"
	"maps"
	"sort"
)

// Graph is a simple undirected graph over nodes 0..N()-1, stored in
// compressed-sparse-row (CSR) form: one offsets array plus one packed
// neighbors array, so a node's adjacency row is a contiguous slice and a
// whole-graph traversal walks two flat arrays instead of chasing n
// slice headers. The zero value is an empty graph; use New to allocate a
// graph with a fixed node count.
//
// Mutation is cheap and batched: AddEdge appends to a flat edge log
// (with an O(1) duplicate check) and marks the CSR stale; the first read
// accessor after a mutation rebuilds the CSR with one O(n+m) counting
// pass. Build-then-read construction therefore pays O(n+m) total, and
// interleaved HasEdge probes during construction stay O(1) via the edge
// set — which exists only on graphs that need it: a family that appends
// every edge in ascending order at both endpoints and never probes while
// stale (cliques, the sparse families) is never charged for one.
//
// Adjacency rows preserve edge-insertion order exactly — the order the
// previous [][]int representation produced — because delivery plans are
// positional over Neighbors and the pinned golden executions depend on
// that order. Sort canonicalizes the rows to ascending; the sparse
// families emit their edges pre-sorted so their rows are sorted without
// any Sort pass.
type Graph struct {
	n int
	// eu/ev is the edge log in insertion order (eu[i],ev[i] as passed to
	// AddEdge). It is the canonical representation; the CSR is derived.
	eu, ev []int32
	// deg is maintained incrementally so Degree and the CSR offsets
	// never force a rebuild.
	deg []int32
	// set holds every edge (normalized min<<32|max) for O(1) duplicate
	// rejection in AddEdge and O(1) HasEdge while the CSR is stale. It is
	// nil until edgeSet builds it from the edge log, at the first append
	// that is not ascending at both endpoints or the first stale HasEdge;
	// so it is never nil once rowsSorted is false, and a frozen graph's
	// HasEdge builds nothing.
	set map[int64]struct{}
	// CSR arrays: nbrs[off[u]:off[u+1]] is u's adjacency row.
	off  []int32
	nbrs []int
	// last[u] is the most recently appended neighbor of u; rowsSorted
	// stays true while every append is ascending, which is what lets
	// HasEdge binary-search instead of consulting the edge set.
	last       []int32
	rowsSorted bool
	dirty      bool
}

// New returns a graph with n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	g := &Graph{
		n:          n,
		deg:        make([]int32, n),
		last:       make([]int32, n),
		rowsSorted: true,
	}
	for i := range g.last {
		g.last[i] = -1
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.eu) }

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate
// edges are rejected with a panic: topology construction bugs must fail
// loudly rather than silently distort an experiment.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	g.check(u)
	g.check(v)
	// An append beyond the largest neighbor of both endpoints is a new
	// edge by that fact alone; anything else asks the set.
	ascending := int32(v) > g.last[u] && int32(u) > g.last[v]
	if !ascending || g.set != nil {
		key := edgeKey(u, v)
		if _, dup := g.edgeSet()[key]; dup {
			panic(fmt.Sprintf("graph: duplicate edge {%d,%d}", u, v))
		}
		g.set[key] = struct{}{}
	}
	if !ascending {
		g.rowsSorted = false
	}
	g.eu = append(g.eu, int32(u))
	g.ev = append(g.ev, int32(v))
	if int32(v) > g.last[u] {
		g.last[u] = int32(v)
	}
	if int32(u) > g.last[v] {
		g.last[v] = int32(u)
	}
	g.deg[u]++
	g.deg[v]++
	g.dirty = true
}

// edgeSet returns the set of all edges, building it from the edge log on
// first use.
func (g *Graph) edgeSet() map[int64]struct{} {
	if g.set == nil {
		g.set = make(map[int64]struct{}, len(g.eu))
		for i := range g.eu {
			g.set[edgeKey(int(g.eu[i]), int(g.ev[i]))] = struct{}{}
		}
	}
	return g.set
}

func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, g.n))
	}
}

// ensure materializes the CSR from the edge log. Filling in edge-log
// order reproduces the append order of both endpoints' rows, so the CSR
// rows are byte-identical to the adjacency lists the old representation
// built.
func (g *Graph) ensure() {
	if !g.dirty && g.off != nil {
		return
	}
	m := len(g.eu)
	if cap(g.off) >= g.n+1 {
		g.off = g.off[:g.n+1]
	} else {
		g.off = make([]int32, g.n+1)
	}
	if cap(g.nbrs) >= 2*m {
		g.nbrs = g.nbrs[:2*m]
	} else {
		g.nbrs = make([]int, 2*m)
	}
	g.off[0] = 0
	for u := 0; u < g.n; u++ {
		g.off[u+1] = g.off[u] + g.deg[u]
	}
	// Cursor pass: reuse the tail of off as cursors would alias, so keep
	// a scratch copy of the running offsets.
	cur := make([]int32, g.n)
	copy(cur, g.off[:g.n])
	for i := 0; i < m; i++ {
		u, v := g.eu[i], g.ev[i]
		g.nbrs[cur[u]] = int(v)
		cur[u]++
		g.nbrs[cur[v]] = int(u)
		cur[v]++
	}
	g.dirty = false
}

// row returns u's CSR adjacency row (callers must have run ensure).
func (g *Graph) row(u int) []int {
	return g.nbrs[g.off[u]:g.off[u+1]]
}

// HasEdge reports whether {u, v} is an edge. On a graph whose rows are
// sorted (every family constructor emits sorted rows; Sort canonicalizes
// the rest) this is a binary search over the smaller row; on a stale or
// insertion-ordered graph it is an O(1) edge-set lookup.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	if g.dirty || !g.rowsSorted {
		_, ok := g.edgeSet()[edgeKey(u, v)]
		return ok
	}
	a, b := u, v
	if g.deg[a] > g.deg[b] {
		a, b = b, a
	}
	row := g.row(a)
	i := sort.SearchInts(row, b)
	return i < len(row) && row[i] == b
}

// Freeze materializes the CSR arrays from the edge log. Reads lazily
// rebuild the CSR after a mutation, so a graph handed to concurrently
// running readers (the wall-clock substrates: node goroutines calling
// Neighbors) must be frozen first — concurrent lazy rebuilds race.
// Reading a frozen graph concurrently is safe until the next mutation.
func (g *Graph) Freeze() {
	g.ensure()
}

// Neighbors returns u's adjacency row. The returned slice aliases the
// graph's packed neighbor array and must not be mutated by callers; it is
// valid until the next mutation.
func (g *Graph) Neighbors(u int) []int {
	g.check(u)
	g.ensure()
	return g.row(u)
}

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int {
	g.check(u)
	return int(g.deg[u])
}

// Sorted reports whether every adjacency row is in ascending order —
// true for every family constructor that emits sorted-by-construction
// edges, and after any Sort call.
func (g *Graph) Sorted() bool { return g.rowsSorted }

// Sort canonicalizes the adjacency rows to ascending order by rewriting
// the edge log in normalized (min,max) lexicographic order: replaying a
// canonical log yields fully sorted rows. On a graph whose rows are
// already sorted this is a no-op. Edges added after Sort append at the
// row tails, exactly as the old sorted-then-appended representation did.
func (g *Graph) Sort() {
	if g.rowsSorted {
		return
	}
	m := len(g.eu)
	for i := 0; i < m; i++ {
		if g.eu[i] > g.ev[i] {
			g.eu[i], g.ev[i] = g.ev[i], g.eu[i]
		}
	}
	sort.Sort(edgeLog{g.eu, g.ev})
	for i := range g.last {
		g.last[i] = -1
	}
	for i := 0; i < m; i++ {
		u, v := g.eu[i], g.ev[i]
		if v > g.last[u] {
			g.last[u] = v
		}
		if u > g.last[v] {
			g.last[v] = u
		}
	}
	g.rowsSorted = true
	g.dirty = true
}

// edgeLog sorts the edge log in (u,v) lexicographic order in place.
type edgeLog struct{ u, v []int32 }

func (e edgeLog) Len() int { return len(e.u) }
func (e edgeLog) Less(i, j int) bool {
	if e.u[i] != e.u[j] {
		return e.u[i] < e.u[j]
	}
	return e.v[i] < e.v[j]
}
func (e edgeLog) Swap(i, j int) {
	e.u[i], e.u[j] = e.u[j], e.u[i]
	e.v[i], e.v[j] = e.v[j], e.v[i]
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		n:          g.n,
		eu:         append([]int32(nil), g.eu...),
		ev:         append([]int32(nil), g.ev...),
		deg:        append([]int32(nil), g.deg...),
		last:       append([]int32(nil), g.last...),
		set:        maps.Clone(g.set), // nil stays nil
		rowsSorted: g.rowsSorted,
		dirty:      true,
	}
	return c
}

// BFS returns the hop distance from src to every node; unreachable nodes
// get -1.
func (g *Graph) BFS(src int) []int {
	g.check(src)
	g.ensure()
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
// allocation. The caller must have run ensure.
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
	g.ensure()
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
	g.ensure() // a read accessor like the rest: whoever runs next finds the CSR built
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
		if g.deg[u] > g.deg[start] {
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
		seq[u] = int(g.deg[u])
	}
	sort.Ints(seq)
	return seq
}
