package graph

import (
	"fmt"
	"math/rand"
)

// Clique returns the complete graph K_n (the paper's single-hop topology).
func Clique(n int) *Graph {
	edges := make([][2]int, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return Build(n, edges)
}

// lineEdges lists the path 0-1-...-(n-1).
func lineEdges(n int) [][2]int {
	var edges [][2]int
	for u := 0; u+1 < n; u++ {
		edges = append(edges, [2]int{u, u + 1})
	}
	return edges
}

// Line returns the path graph on n nodes (diameter n-1). The paper writes
// L_d for the line with d+1 nodes; Line(d+1) constructs it.
func Line(n int) *Graph {
	return Build(n, lineEdges(n))
}

// Ring returns the cycle graph on n >= 3 nodes: the line plus the closing
// edge {n-1, 0} listed last, so node n-1's row reads [n-2, 0] — the one
// structured family whose rows are not all ascending, kept because the
// golden executions on rings are positional over that row.
func Ring(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: ring needs >= 3 nodes, got %d", n))
	}
	return Build(n, append(lineEdges(n), [2]int{n - 1, 0}))
}

// Star returns the star graph: node 0 is the hub, nodes 1..n-1 are leaves.
func Star(n int) *Graph {
	var edges [][2]int
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{0, v})
	}
	return Build(n, edges)
}

// Grid returns the rows x cols grid graph (diameter rows+cols-2).
func Grid(rows, cols int) *Graph {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("graph: invalid grid %dx%d", rows, cols))
	}
	var edges [][2]int
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{id(r, c), id(r+1, c)})
			}
		}
	}
	return Build(rows*cols, edges)
}

// BalancedTree returns the complete b-ary tree of the given depth
// (depth 0 is a single root). Node 0 is the root; children of u are
// appended in breadth-first order.
func BalancedTree(branch, depth int) *Graph {
	if branch < 1 || depth < 0 {
		panic(fmt.Sprintf("graph: invalid tree branch=%d depth=%d", branch, depth))
	}
	// Count nodes: sum_{i=0..depth} branch^i.
	total := 1
	level := 1
	for i := 0; i < depth; i++ {
		level *= branch
		total += level
	}
	edges := make([][2]int, 0, total-1)
	next := 1
	for u := 0; next < total; u++ {
		for c := 0; c < branch && next < total; c++ {
			edges = append(edges, [2]int{u, next})
			next++
		}
	}
	return Build(total, edges)
}

// StarOfLines returns `arms` disjoint paths of length armLen joined at a
// central hub (node 0). It is the bottleneck topology used by experiment
// E7: diameter 2*armLen while the hub must relay Theta(n) information,
// which is exactly where per-id flooding degrades to Theta(n*Fack).
func StarOfLines(arms, armLen int) *Graph {
	if arms < 1 || armLen < 1 {
		panic(fmt.Sprintf("graph: invalid star-of-lines arms=%d armLen=%d", arms, armLen))
	}
	edges := make([][2]int, 0, arms*armLen)
	node := 1
	for a := 0; a < arms; a++ {
		prev := 0
		for i := 0; i < armLen; i++ {
			edges = append(edges, [2]int{prev, node})
			prev = node
			node++
		}
	}
	return Build(1+arms*armLen, edges)
}

// RandomOverlay returns a graph on the same node set as g containing up to
// `extra` edges chosen uniformly among the non-edges of g (without
// replacement). It is the unreliable-link overlay for the dual-graph model
// variant: edge-disjoint from g by construction. Deterministic for a given
// seed.
func RandomOverlay(g *Graph, extra int, seed int64) *Graph {
	if extra < 0 {
		panic(fmt.Sprintf("graph: negative overlay size %d", extra))
	}
	n := g.N()
	var nonEdges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) {
				nonEdges = append(nonEdges, [2]int{u, v})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(nonEdges), func(i, j int) {
		nonEdges[i], nonEdges[j] = nonEdges[j], nonEdges[i]
	})
	if extra > len(nonEdges) {
		extra = len(nonEdges)
	}
	return FromEdges(n, nonEdges[:extra])
}

// RandomConnected returns a random connected graph on n nodes: a uniform
// random spanning tree (random attachment) plus each remaining pair added
// independently with probability p. Deterministic for a given seed.
func RandomConnected(n int, p float64, seed int64) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("graph: invalid node count %d", n))
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("graph: invalid edge probability %v", p))
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]int, 0, n)
	// Random attachment tree keeps the graph connected with varied shape.
	// The pair loop below meets every pair once, so the tree's edges are
	// the only ones it can find already present.
	tree := make(map[int64]struct{}, n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := perm[i], perm[rng.Intn(i)]
		tree[edgeKey(u, v)] = struct{}{}
		edges = append(edges, [2]int{u, v})
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if _, has := tree[edgeKey(u, v)]; !has && rng.Float64() < p {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return Build(n, edges)
}
