package harness

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
)

// Topo describes a topology by family name plus the family's parameters.
// The zero value is invalid; construct via ParseTopo or a literal with Kind
// set. Topologies marshal to their compact string form in JSON.
type Topo struct {
	// Kind is a registered family: clique | line | ring | star | grid |
	// tree | starlines | random | expander | pods.
	Kind string
	// N is the node count for clique/line/ring/star/random/expander.
	N int
	// Rows and Cols shape grids.
	Rows, Cols int
	// Branch and Depth shape balanced trees.
	Branch, Depth int
	// Arms and ArmLen shape stars-of-lines.
	Arms, ArmLen int
	// P is the random family's edge probability.
	P float64
	// Deg is the expander family's degree.
	Deg int
	// Pods, PodSize and Cross shape the multi-pod sparse mesh: Pods pods
	// of PodSize nodes with Cross cross-pod links per pod.
	Pods, PodSize, Cross int
}

// Topologies returns the registered topology family names, sorted.
func Topologies() []string {
	return []string{"clique", "expander", "grid", "line", "pods", "random", "ring", "star", "starlines", "tree"}
}

// ParseTopo parses the compact topology grammar used by sweep flags:
//
//	clique:N  line:N  ring:N  star:N       one size parameter
//	grid:RxC  tree:BxD  starlines:AxL      two, separated by 'x'
//	random:N:P                             size and edge probability
//	expander:N:D                           seeded random D-regular graph
//	pods:P:K:C                             P pods of K nodes, C cross links
//
// Examples: "clique:16", "grid:4x4", "tree:2x3", "random:24:0.1",
// "expander:1024:8", "pods:16:64:4".
func ParseTopo(s string) (Topo, error) {
	parts := strings.Split(s, ":")
	kind := parts[0]
	bad := func() (Topo, error) {
		return Topo{}, fmt.Errorf("harness: cannot parse topology %q (grammar: kind:N, kind:AxB, random:N:P, expander:N:D or pods:P:K:C; kinds %v)", s, Topologies())
	}
	one := func() (int, bool) {
		if len(parts) != 2 {
			return 0, false
		}
		n, err := strconv.Atoi(parts[1])
		return n, err == nil
	}
	two := func() (int, int, bool) {
		if len(parts) != 2 {
			return 0, 0, false
		}
		ab := strings.SplitN(parts[1], "x", 2)
		if len(ab) != 2 {
			return 0, 0, false
		}
		a, err1 := strconv.Atoi(ab[0])
		b, err2 := strconv.Atoi(ab[1])
		return a, b, err1 == nil && err2 == nil
	}
	switch kind {
	case "clique", "line", "ring", "star":
		n, ok := one()
		if !ok {
			return bad()
		}
		return Topo{Kind: kind, N: n}, nil
	case "grid":
		r, c, ok := two()
		if !ok {
			return bad()
		}
		return Topo{Kind: kind, Rows: r, Cols: c}, nil
	case "tree":
		b, d, ok := two()
		if !ok {
			return bad()
		}
		return Topo{Kind: kind, Branch: b, Depth: d}, nil
	case "starlines":
		a, l, ok := two()
		if !ok {
			return bad()
		}
		return Topo{Kind: kind, Arms: a, ArmLen: l}, nil
	case "random":
		if len(parts) != 3 {
			return bad()
		}
		n, err1 := strconv.Atoi(parts[1])
		p, err2 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil {
			return bad()
		}
		return Topo{Kind: kind, N: n, P: p}, nil
	case "expander":
		if len(parts) != 3 {
			return bad()
		}
		n, err1 := strconv.Atoi(parts[1])
		d, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			return bad()
		}
		return Topo{Kind: kind, N: n, Deg: d}, nil
	case "pods":
		if len(parts) != 4 {
			return bad()
		}
		p, err1 := strconv.Atoi(parts[1])
		k, err2 := strconv.Atoi(parts[2])
		c, err3 := strconv.Atoi(parts[3])
		if err1 != nil || err2 != nil || err3 != nil {
			return bad()
		}
		return Topo{Kind: kind, Pods: p, PodSize: k, Cross: c}, nil
	default:
		return bad()
	}
}

// String renders the topology in the ParseTopo grammar.
func (t Topo) String() string {
	switch t.Kind {
	case "grid":
		return fmt.Sprintf("grid:%dx%d", t.Rows, t.Cols)
	case "tree":
		return fmt.Sprintf("tree:%dx%d", t.Branch, t.Depth)
	case "starlines":
		return fmt.Sprintf("starlines:%dx%d", t.Arms, t.ArmLen)
	case "random":
		return fmt.Sprintf("random:%d:%g", t.N, t.P)
	case "expander":
		return fmt.Sprintf("expander:%d:%d", t.N, t.Deg)
	case "pods":
		return fmt.Sprintf("pods:%d:%d:%d", t.Pods, t.PodSize, t.Cross)
	default:
		return fmt.Sprintf("%s:%d", t.Kind, t.N)
	}
}

// MarshalText renders the compact grammar (so Topo JSON-encodes as a
// string inside Scenario and Cell).
func (t Topo) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText parses the compact grammar.
func (t *Topo) UnmarshalText(b []byte) error {
	parsed, err := ParseTopo(string(b))
	if err != nil {
		return err
	}
	*t = parsed
	return nil
}

// buildSeed is the seed as far as Build's output is concerned: it
// normalizes to 0 for the families known to ignore their seed, which lets
// the sweep caches share one graph across a whole seed axis. The list is
// an allowlist on purpose — a family not named here (including any future
// one) conservatively keys on the full seed, so forgetting to classify a
// new family costs cache hits, never correctness.
func (t Topo) buildSeed(seed int64) int64 {
	switch t.Kind {
	case "clique", "line", "ring", "star", "grid", "tree", "starlines":
		return 0
	}
	return seed
}

// Build constructs the graph. The seed feeds the random family only (see
// buildSeed); every other family ignores it, so the same Topo builds the
// same graph.
func (t Topo) Build(seed int64) (*graph.Graph, error) {
	if t.nodes() > sim.MaxNodes {
		return nil, fmt.Errorf("harness: %s has more than sim.MaxNodes=%d nodes", t, sim.MaxNodes)
	}
	if t.arcs() > math.MaxInt32 {
		return nil, fmt.Errorf("harness: %s may have more than %d directed edges, the most a graph's int32 row offsets hold", t, math.MaxInt32)
	}
	switch t.Kind {
	case "clique":
		return checkN(graph.Clique, t)
	case "line":
		return checkN(graph.Line, t)
	case "ring":
		if t.N < 3 {
			return nil, fmt.Errorf("harness: %s needs n >= 3", t)
		}
		return graph.Ring(t.N), nil
	case "star":
		return checkN(graph.Star, t)
	case "grid":
		if t.Rows < 1 || t.Cols < 1 {
			return nil, fmt.Errorf("harness: %s needs rows, cols >= 1", t)
		}
		return graph.Grid(t.Rows, t.Cols), nil
	case "tree":
		if t.Branch < 1 || t.Depth < 0 {
			return nil, fmt.Errorf("harness: %s needs branch >= 1, depth >= 0", t)
		}
		return graph.BalancedTree(t.Branch, t.Depth), nil
	case "starlines":
		if t.Arms < 1 || t.ArmLen < 1 {
			return nil, fmt.Errorf("harness: %s needs arms, armlen >= 1", t)
		}
		return graph.StarOfLines(t.Arms, t.ArmLen), nil
	case "random":
		if t.N < 1 || !(t.P >= 0 && t.P <= 1) { // NaN is no probability either
			return nil, fmt.Errorf("harness: %s needs n >= 1 and p in [0,1]", t)
		}
		return graph.RandomConnected(t.N, t.P, seed), nil
	case "expander":
		if t.Deg < 3 || t.Deg >= t.N || t.N*t.Deg%2 != 0 {
			return nil, fmt.Errorf("harness: %s needs 3 <= d < n with n*d even", t)
		}
		return graph.Expander(t.N, t.Deg, expanderSeed(seed)), nil
	case "pods":
		if t.Pods < 1 || t.PodSize < 1 || t.Cross < 0 || (t.Pods > 1 && t.Cross < 1) {
			return nil, fmt.Errorf("harness: %s needs p, k >= 1 and c >= 1 when p > 1", t)
		}
		// A pod has k·(n-k) distinct cross pairs; a larger c only adds
		// duplicates, each a few rng draws.
		if n := int64(t.Pods) * int64(t.PodSize); t.Pods > 1 && int64(t.Cross) > int64(t.PodSize)*(n-int64(t.PodSize)) {
			return nil, fmt.Errorf("harness: %s asks for more cross links per pod than the k*(n-k) = %d pairs a pod has", t, int64(t.PodSize)*(n-int64(t.PodSize)))
		}
		return graph.Pods(t.Pods, t.PodSize, t.Cross, podsSeed(seed)), nil
	default:
		return nil, fmt.Errorf("harness: unknown topology kind %q (have %v)", t.Kind, Topologies())
	}
}

// nodes is the node count t's parameters multiply out to, saturating just
// above sim.MaxNodes so that no spec — flags and artifact JSON bring them
// in from outside — overflows on the way to a constructor. A parameter
// below 1 counts as 1: Build's per-family checks name those.
func (t Topo) nodes() int64 {
	const limit = int64(sim.MaxNodes) + 1
	mul := func(a int64, b int) int64 { return mulSat(a, b, limit) }
	switch t.Kind {
	case "grid":
		return mul(mul(1, t.Rows), t.Cols)
	case "tree":
		total, level := int64(1), int64(1)
		for i := 0; i < t.Depth && total < limit; i++ {
			level = mul(level, t.Branch)
			total += level
		}
		return min(total, limit)
	case "starlines":
		return 1 + mul(mul(1, t.Arms), t.ArmLen)
	case "pods":
		return mul(mul(1, t.Pods), t.PodSize)
	default:
		return int64(t.N)
	}
}

// arcs bounds the directed edges (twice the undirected ones) t's graph
// can have, saturating just above math.MaxInt32, so that a spec whose
// edge list could not fit graph.Build's int32 offsets is refused before
// its constructor allocates that list. It assumes nodes() is within
// sim.MaxNodes, so n(n-1) cannot overflow; parameters below 1 count as 1,
// as in nodes.
func (t Topo) arcs() int64 {
	const limit = int64(math.MaxInt32) + 1
	n := t.nodes()
	switch t.Kind {
	case "clique", "random": // random's bound is p = 1
		return min(n*(n-1), limit)
	case "expander":
		return mulSat(n, t.Deg, limit)
	case "pods": // a ring per pod plus Cross links per pod
		return min(2*(n+mulSat(int64(max(t.Pods, 1)), t.Cross, limit)), limit)
	case "grid":
		return min(4*n, limit)
	default: // line, ring, star, tree, starlines: at most n edges
		return min(2*n, limit)
	}
}

// mulSat is a·b for a >= 0, saturating at limit; b below 1 counts as 1.
func mulSat(a int64, b int, limit int64) int64 {
	if b < 1 {
		return a
	}
	if a > limit/int64(b) {
		return limit
	}
	return a * int64(b)
}

func checkN(mk func(int) *graph.Graph, t Topo) (*graph.Graph, error) {
	if t.N < 1 {
		return nil, fmt.Errorf("harness: %s needs n >= 1", t)
	}
	return mk(t.N), nil
}

// expanderSeed and podsSeed decorrelate the seeded topology builders from
// the scheduler (which consumes the scenario seed directly) and from each
// other. They are part of the affine seed-map registry kept beside
// overlaySeed in adversity.go: every map there must stay distinct.
func expanderSeed(seed int64) int64 { return seed*9176741 + 389 }

func podsSeed(seed int64) int64 { return seed*15485863 + 577 }
