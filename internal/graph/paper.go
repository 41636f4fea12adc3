package graph

import (
	"fmt"
	"sort"
)

// This file constructs the lower-bound networks from the paper.
//
// Figure 1 (Section 3.2, impossibility of anonymous consensus): a "gadget"
// graph, network A (two gadgets joined by a bridge node q that also carries
// a size-padding clique C), and network B (three interlocked copies of the
// gadget arranged so that every node's local view matches the gadget —
// property (*) in the proof of Lemma 3.6).
//
// Figure 2 (Section 3.3, impossibility without knowledge of n): K_D, two
// copies of the line L_D plus a line L_{D-1} whose fixed endpoint is wired
// to every node of both L_D copies.
//
// The gadget's internal decoration in the paper's figure is partially
// ambiguous in the source; we use a reconstruction with identical node
// accounting (gadget size d+k+4, total 3(d+k)+12 = n') and identical
// network-A diameter D = 2d+2. Our three-fold cover B satisfies property
// (*) exactly but has diameter D+1 rather than D; experiments therefore
// hand algorithms a common diameter bound valid for both networks, which
// preserves the force of the construction (experiment E2 in
// internal/exp/lower.go reports both diameters).

// Gadget holds the local node indexing of one Figure 1 gadget. Local
// indices: C() is the connector, A(i) for i in [1,d] is the spine,
// B1..B3 are the three pad nodes forming an alternate c<->a1 path, and
// S(j) for j in [1,k] are the fan nodes between A(d-1) and A(d).
type Gadget struct {
	d, k int
}

// NewGadget describes a gadget with spine length d >= 2 and fan width
// k >= 0.
func NewGadget(d, k int) Gadget {
	if d < 2 {
		panic(fmt.Sprintf("graph: gadget spine d=%d, need >= 2 (diameter D >= 6)", d))
	}
	if k < 0 {
		panic(fmt.Sprintf("graph: gadget fan k=%d, need >= 0", k))
	}
	return Gadget{d: d, k: k}
}

// Size returns the gadget node count d+k+4.
func (g Gadget) Size() int { return g.d + g.k + 4 }

// C returns the connector's local index.
func (g Gadget) C() int { return 0 }

// A returns the local index of spine node a_i, 1 <= i <= d.
func (g Gadget) A(i int) int {
	if i < 1 || i > g.d {
		panic(fmt.Sprintf("graph: gadget spine index %d out of [1,%d]", i, g.d))
	}
	return i
}

// B returns the local index of pad node b_i, 1 <= i <= 3.
func (g Gadget) B(i int) int {
	if i < 1 || i > 3 {
		panic(fmt.Sprintf("graph: gadget pad index %d out of [1,3]", i))
	}
	return g.d + i
}

// S returns the local index of fan node s_j, 1 <= j <= k.
func (g Gadget) S(j int) int {
	if j < 1 || j > g.k {
		panic(fmt.Sprintf("graph: gadget fan index %d out of [1,%d]", j, g.k))
	}
	return g.d + 3 + j
}

// edges enumerates the gadget's edge set in local indices.
func (g Gadget) edges() [][2]int {
	var es [][2]int
	es = append(es, [2]int{g.C(), g.A(1)})
	for i := 1; i < g.d; i++ {
		es = append(es, [2]int{g.A(i), g.A(i + 1)})
	}
	// Alternate path c - b3 - b2 - b1 - a1 (the paper's a+ nodes).
	es = append(es, [2]int{g.C(), g.B(3)})
	es = append(es, [2]int{g.B(3), g.B(2)})
	es = append(es, [2]int{g.B(2), g.B(1)})
	es = append(es, [2]int{g.B(1), g.A(1)})
	// Fan of parallel two-hop paths a_{d-1} - s_j - a_d.
	for j := 1; j <= g.k; j++ {
		es = append(es, [2]int{g.A(g.d - 1), g.S(j)})
		es = append(es, [2]int{g.S(j), g.A(g.d)})
	}
	return es
}

// Build returns the standalone gadget graph.
func (g Gadget) Build() *Graph {
	return FromEdges(g.Size(), g.edges())
}

// Figure1 holds the two networks of the paper's Figure 1 along with the
// node-role bookkeeping the indistinguishability experiments need.
type Figure1 struct {
	Gadget Gadget
	// A is the left network: two gadget copies bridged by Q, plus the
	// padding clique attached to Q.
	A *Graph
	// AGadget[b] lists network-A node indices of gadget copy b (the
	// proof's node sets A_0 and A_1), ordered by local gadget index.
	AGadget [2][]int
	// Q is the bridge node's index in A.
	Q int
	// Clique lists the padding clique's node indices in A.
	Clique []int
	// B is the right network: three interlocked gadget copies.
	B *Graph
	// BCopy[i] lists network-B node indices of copy i, ordered by local
	// gadget index; S_u for gadget-local index l is
	// {BCopy[0][l], BCopy[1][l], BCopy[2][l]}.
	BCopy [3][]int
	// N is the shared node count n' of both networks.
	N int
	// DiamA and DiamB are the BFS-computed diameters.
	DiamA, DiamB int
}

// BuildFigure1 instantiates the Figure 1 networks for an even diameter
// D >= 6 and a minimum size n >= D, following the paper's sizing: d is
// (D-2)/2, k is the smallest value with 3(d+k)+12 >= n, and network A's
// clique brings its size up to match network B's 3(d+k+4).
func BuildFigure1(D, n int) *Figure1 {
	if D < 6 || D%2 != 0 {
		panic(fmt.Sprintf("graph: Figure 1 needs even D >= 6, got %d", D))
	}
	if n < D {
		panic(fmt.Sprintf("graph: Figure 1 needs n >= D, got n=%d D=%d", n, D))
	}
	d := (D - 2) / 2
	k := 0
	for 3*(d+k)+12 < n {
		k++
	}
	gad := NewGadget(d, k)
	size := gad.Size()
	total := 3 * size // n' = 3(d+k)+12

	fig := &Figure1{Gadget: gad, N: total}

	// ---- Network A: gadget0 + gadget1 + q + clique C. ----
	cliqueSize := total - 2*size - 1 // = d+k+3
	var aEdges [][2]int
	for copyIdx := 0; copyIdx < 2; copyIdx++ {
		off := copyIdx * size
		nodes := make([]int, size)
		for l := 0; l < size; l++ {
			nodes[l] = off + l
		}
		fig.AGadget[copyIdx] = nodes
		for _, e := range gad.edges() {
			aEdges = append(aEdges, [2]int{off + e[0], off + e[1]})
		}
	}
	fig.Q = 2 * size
	aEdges = append(aEdges, [2]int{fig.Q, fig.AGadget[0][gad.C()]})
	aEdges = append(aEdges, [2]int{fig.Q, fig.AGadget[1][gad.C()]})
	fig.Clique = make([]int, cliqueSize)
	for i := 0; i < cliqueSize; i++ {
		fig.Clique[i] = 2*size + 1 + i
		aEdges = append(aEdges, [2]int{fig.Q, fig.Clique[i]})
		for j := 0; j < i; j++ {
			aEdges = append(aEdges, [2]int{fig.Clique[j], fig.Clique[i]})
		}
	}
	fig.A = FromEdges(total, aEdges)

	// ---- Network B: three-fold cover of the gadget. ----
	// All edges lift with the identity permutation except the connector's
	// spine edge (c,a1), which rotates by +1; copy i's connector attaches
	// to copy i+1's spine. The connector's pad edge (c,b3) lifts with the
	// identity, so c_i bridges copy i (via b3) and copy i+1 (via a1),
	// interlocking the three copies into a connected cover that satisfies
	// property (*) of Lemma 3.6.
	var bEdges [][2]int
	for i := 0; i < 3; i++ {
		off := i * size
		nodes := make([]int, size)
		for l := 0; l < size; l++ {
			nodes[l] = off + l
		}
		fig.BCopy[i] = nodes
	}
	rot := func(i int) int { return (i + 1) % 3 }
	cEdge := [2]int{gad.C(), gad.A(1)}
	for _, e := range gad.edges() {
		for i := 0; i < 3; i++ {
			to := i
			if e == cEdge {
				to = rot(i)
			}
			bEdges = append(bEdges, [2]int{fig.BCopy[i][e[0]], fig.BCopy[to][e[1]]})
		}
	}
	fig.B = FromEdges(total, bEdges)

	fig.DiamA = fig.A.Diameter()
	fig.DiamB = fig.B.Diameter()
	return fig
}

// SU returns the proof's set S_u: the three network-B nodes corresponding
// to gadget-local index l.
func (f *Figure1) SU(l int) [3]int {
	return [3]int{f.BCopy[0][l], f.BCopy[1][l], f.BCopy[2][l]}
}

// VerifyCoverProperty checks property (*) from the proof of Lemma 3.6:
// for every gadget-local node l and every copy i, node BCopy[i][l] has,
// for each gadget-neighbor class l' of l, exactly one neighbor inside
// S_{l'}, and no neighbors outside those classes. It returns a descriptive
// error on the first violation.
func (f *Figure1) VerifyCoverProperty() error {
	size := f.Gadget.Size()
	gadget := f.Gadget.Build()
	// classOf[global B node] = gadget-local index.
	classOf := make([]int, f.B.N())
	for i := 0; i < 3; i++ {
		for l := 0; l < size; l++ {
			classOf[f.BCopy[i][l]] = l
		}
	}
	for l := 0; l < size; l++ {
		want := map[int]bool{}
		for _, nl := range gadget.Neighbors(l) {
			want[nl] = true
		}
		for i := 0; i < 3; i++ {
			u := f.BCopy[i][l]
			seen := map[int]int{}
			for _, v := range f.B.Neighbors(u) {
				seen[classOf[v]]++
			}
			if len(seen) != len(want) {
				return fmt.Errorf("graph: cover property: node copy=%d local=%d touches %d classes, want %d", i, l, len(seen), len(want))
			}
			// Sorted so the first violated class — and thus the error
			// text — is the same on every run.
			classes := make([]int, 0, len(seen))
			for nl := range seen {
				classes = append(classes, nl)
			}
			sort.Ints(classes)
			for _, nl := range classes {
				if !want[nl] {
					return fmt.Errorf("graph: cover property: node copy=%d local=%d adjacent to unexpected class %d", i, l, nl)
				}
				if cnt := seen[nl]; cnt != 1 {
					return fmt.Errorf("graph: cover property: node copy=%d local=%d has %d neighbors in class %d, want 1", i, l, cnt, nl)
				}
			}
		}
	}
	return nil
}

// KDNetwork holds the paper's Figure 2 network K_D and its parts.
type KDNetwork struct {
	G *Graph
	// L1 and L2 are the two L_D lines (D+1 nodes each), ordered from the
	// free end toward the hub-adjacent end.
	L1, L2 []int
	// Hub is the fixed endpoint of the L_{D-1} line wired to every node
	// of L1 and L2.
	Hub int
	// Tail lists the remaining L_{D-1} nodes walking away from the hub.
	Tail []int
	// D is the requested (and BFS-verified, for D >= 2) diameter.
	D int
}

// BuildKD constructs K_D for D >= 2: two disjoint copies of the line L_D
// plus the line L_{D-1}, with an edge from every L_D node to one fixed
// endpoint (Hub) of the L_{D-1} line.
func BuildKD(D int) *KDNetwork {
	if D < 2 {
		panic(fmt.Sprintf("graph: K_D needs D >= 2, got %d", D))
	}
	lineLen := D + 1 // |L_D|
	tailLen := D - 1 // |L_{D-1}| - 1 nodes beyond the hub
	total := 2*lineLen + 1 + tailLen
	kd := &KDNetwork{D: D}
	var edges [][2]int

	build := func(off int) []int {
		nodes := make([]int, lineLen)
		for i := 0; i < lineLen; i++ {
			nodes[i] = off + i
			if i > 0 {
				edges = append(edges, [2]int{nodes[i-1], nodes[i]})
			}
		}
		return nodes
	}
	kd.L1 = build(0)
	kd.L2 = build(lineLen)
	kd.Hub = 2 * lineLen
	kd.Tail = make([]int, tailLen)
	prev := kd.Hub
	for i := 0; i < tailLen; i++ {
		kd.Tail[i] = kd.Hub + 1 + i
		edges = append(edges, [2]int{prev, kd.Tail[i]})
		prev = kd.Tail[i]
	}
	for _, u := range kd.L1 {
		edges = append(edges, [2]int{u, kd.Hub})
	}
	for _, u := range kd.L2 {
		edges = append(edges, [2]int{u, kd.Hub})
	}
	kd.G = FromEdges(total, edges)
	return kd
}
