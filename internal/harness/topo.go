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
	// Kind is a registered family (see Topologies; ParseTopo's error
	// message lists every family with its grammar).
	Kind string
	// N is the node count of the families whose grammar starts with N.
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
	// Diam is the diameter D of the paper's lower-bound networks: fig1a
	// and fig1b (with N the least size n), kd.
	Diam int
}

// topoFamily is one registered topology family: everything the package
// knows about it is its row in topoFamilies.
type topoFamily struct {
	// grammar names the spec's parameters after "kind:", one letter each,
	// separated as the spec separates them (':' or 'x'): "RxC", "N:P".
	grammar string
	// params points at the Topo fields the grammar's letters fill, in
	// order: *int, or *float64 (NaN refused).
	params func(t *Topo) []any
	// need is "" when t's parameters build, else the rest of Build's error
	// after the spec.
	need  func(t Topo) string
	build func(t Topo, seed int64) *graph.Graph
	// nodes is the node count the parameters multiply out to, saturating
	// just above sim.MaxNodes (mulSat) so that no spec — flags and artifact
	// JSON bring them in from outside — overflows on the way to build; a
	// parameter below 1 counts as 1, need names those. nil means N.
	nodes func(t Topo) int64
	// arcs bounds the directed edges (twice the undirected ones) of an
	// n-node instance, saturating just above math.MaxInt32, so that a spec
	// whose edge list could not fit graph.Build's int32 offsets is refused
	// before build allocates it. nil means 2n: at most n edges.
	arcs func(t Topo, n int64) int64
	// minN is the smallest N that Smaller steps down to; 0 means the
	// family has no single size to step.
	minN int
	// seedFree declares that build ignores its seed, so that the sweep
	// caches share one graph across a seed axis. Overlay entries carry the
	// same declaration. The zero value means "consumes the seed": a
	// forgotten declaration costs cache hits, never correctness.
	// TestSeedDeclarations holds every declaration to seeds 1 and 2.
	seedFree bool
}

const (
	nodeLimit = int64(sim.MaxNodes) + 1
	arcLimit  = int64(math.MaxInt32) + 1
)

func sizeN(t *Topo) []any { return []any{&t.N} }

// sized is the row of a seed-free family built from N alone, which needs
// n >= least and which Smaller steps down to shrinkTo.
func sized(mk func(int) *graph.Graph, least, shrinkTo int, arcs func(Topo, int64) int64) topoFamily {
	return topoFamily{grammar: "N", params: sizeN, minN: shrinkTo, arcs: arcs, seedFree: true,
		need:  func(t Topo) string { return needs(t.N >= least, fmt.Sprintf("n >= %d", least)) },
		build: func(t Topo, _ int64) *graph.Graph { return mk(t.N) }}
}

// needs is a row's need: "" when ok, else what the parameters need.
func needs(ok bool, what string) string {
	if ok {
		return ""
	}
	return "needs " + what
}

// denseArcs bounds a graph that may be complete.
func denseArcs(_ Topo, n int64) int64 { return min(n*(n-1), arcLimit) }

// figure1 is the row of one of Figure 1's networks (graph.BuildFigure1,
// which builds both, so both rows bound the arcs by network A's padding
// clique).
func figure1(pick func(*graph.Figure1) *graph.Graph) topoFamily {
	return topoFamily{grammar: "D:N", seedFree: true, arcs: denseArcs,
		params: func(t *Topo) []any { return []any{&t.Diam, &t.N} },
		need: func(t Topo) string {
			return needs(t.Diam >= 6 && t.Diam%2 == 0 && t.N >= t.Diam, "even D >= 6 and n >= D")
		},
		build: func(t Topo, _ int64) *graph.Graph { return pick(graph.BuildFigure1(t.Diam, t.N)) },
		// 3(d+k)+12 for d = (D-2)/2 and the least k >= 0 reaching n.
		nodes: func(t Topo) int64 {
			d, n := min(int64(max(t.Diam, 6)-2)/2, nodeLimit), min(int64(t.N), nodeLimit)
			return min(max(3*d+12, (n+2)/3*3), nodeLimit)
		}}
}

var topoFamilies = map[string]topoFamily{
	"fig1a": figure1(func(f *graph.Figure1) *graph.Graph { return f.A }),
	"fig1b": figure1(func(f *graph.Figure1) *graph.Graph { return f.B }),
	"kd": {grammar: "D", seedFree: true,
		params: func(t *Topo) []any { return []any{&t.Diam} },
		need:   func(t Topo) string { return needs(t.Diam >= 2, "D >= 2") },
		build:  func(t Topo, _ int64) *graph.Graph { return graph.BuildKD(t.Diam).G },
		nodes:  func(t Topo) int64 { return min(mulSat(3, t.Diam, nodeLimit)+2, nodeLimit) },
		arcs:   func(_ Topo, n int64) int64 { return min(4*n, arcLimit) }},
	"clique": sized(graph.Clique, 1, 2, denseArcs),
	"line":   sized(graph.Line, 1, 2, nil),
	"ring":   sized(graph.Ring, 3, 3, nil),
	"star":   sized(graph.Star, 1, 2, nil),
	"grid": {grammar: "RxC", seedFree: true,
		params: func(t *Topo) []any { return []any{&t.Rows, &t.Cols} },
		need:   func(t Topo) string { return needs(t.Rows >= 1 && t.Cols >= 1, "rows, cols >= 1") },
		build:  func(t Topo, _ int64) *graph.Graph { return graph.Grid(t.Rows, t.Cols) },
		nodes:  func(t Topo) int64 { return mulSat(mulSat(1, t.Rows, nodeLimit), t.Cols, nodeLimit) },
		arcs:   func(_ Topo, n int64) int64 { return min(4*n, arcLimit) }},
	"tree": {grammar: "BxD", seedFree: true,
		params: func(t *Topo) []any { return []any{&t.Branch, &t.Depth} },
		need:   func(t Topo) string { return needs(t.Branch >= 1 && t.Depth >= 0, "branch >= 1, depth >= 0") },
		build:  func(t Topo, _ int64) *graph.Graph { return graph.BalancedTree(t.Branch, t.Depth) },
		nodes: func(t Topo) int64 {
			total, level := int64(1), int64(1)
			for i := 0; i < t.Depth && total < nodeLimit; i++ {
				level = mulSat(level, t.Branch, nodeLimit)
				total += level
			}
			return min(total, nodeLimit)
		}},
	"starlines": {grammar: "AxL", seedFree: true,
		params: func(t *Topo) []any { return []any{&t.Arms, &t.ArmLen} },
		need:   func(t Topo) string { return needs(t.Arms >= 1 && t.ArmLen >= 1, "arms, armlen >= 1") },
		build:  func(t Topo, _ int64) *graph.Graph { return graph.StarOfLines(t.Arms, t.ArmLen) },
		nodes:  func(t Topo) int64 { return 1 + mulSat(mulSat(1, t.Arms, nodeLimit), t.ArmLen, nodeLimit) }},
	"random": {grammar: "N:P", minN: 2, arcs: denseArcs, // the bound of p = 1
		params: func(t *Topo) []any { return []any{&t.N, &t.P} },
		need: func(t Topo) string { // NaN is no probability either
			return needs(t.N >= 1 && t.P >= 0 && t.P <= 1, "n >= 1 and p in [0,1]")
		},
		build: func(t Topo, seed int64) *graph.Graph { return graph.RandomConnected(t.N, t.P, seed) }},
	"expander": {grammar: "N:D",
		params: func(t *Topo) []any { return []any{&t.N, &t.Deg} },
		need: func(t Topo) string {
			return needs(t.Deg >= 3 && t.Deg < t.N && t.N*t.Deg%2 == 0, "3 <= d < n with n*d even")
		},
		build: func(t Topo, seed int64) *graph.Graph { return graph.Expander(t.N, t.Deg, expanderSeed(seed)) },
		arcs:  func(t Topo, n int64) int64 { return mulSat(n, t.Deg, arcLimit) }},
	"pods": {grammar: "P:K:C",
		params: func(t *Topo) []any { return []any{&t.Pods, &t.PodSize, &t.Cross} },
		need: func(t Topo) string {
			if t.Pods < 1 || t.PodSize < 1 || t.Cross < 0 || (t.Pods > 1 && t.Cross < 1) {
				return "needs p, k >= 1 and c >= 1 when p > 1"
			}
			// A pod has k·(n-k) distinct cross pairs; a larger c only adds
			// duplicates, each a few rng draws.
			if pairs := int64(t.PodSize) * (int64(t.Pods)*int64(t.PodSize) - int64(t.PodSize)); t.Pods > 1 && int64(t.Cross) > pairs {
				return fmt.Sprintf("asks for more cross links per pod than the k*(n-k) = %d pairs a pod has", pairs)
			}
			return ""
		},
		build: func(t Topo, seed int64) *graph.Graph { return graph.Pods(t.Pods, t.PodSize, t.Cross, podsSeed(seed)) },
		nodes: func(t Topo) int64 { return mulSat(mulSat(1, t.Pods, nodeLimit), t.PodSize, nodeLimit) },
		arcs: func(t Topo, n int64) int64 { // a ring per pod plus Cross links per pod
			return min(2*(n+mulSat(int64(max(t.Pods, 1)), t.Cross, arcLimit)), arcLimit)
		}},
}

// Topologies returns the registered topology family names, sorted.
func Topologies() []string { return sortedKeys(topoFamilies) }

// topoGrammar lists every family with its parameter grammar.
func topoGrammar() string {
	specs := Topologies()
	for i, kind := range specs {
		specs[i] += ":" + topoFamilies[kind].grammar
	}
	return strings.Join(specs, ", ")
}

// ParseTopo parses the compact topology grammar used by sweep flags,
// kind:params, where each family's row declares its parameters; the
// error message lists every family with its grammar. Examples:
// "clique:16", "grid:4x4", "tree:2x3", "random:24:0.1", "expander:1024:8",
// "pods:16:64:4".
func ParseTopo(s string) (Topo, error) {
	kind, text, _ := strings.Cut(s, ":")
	f, ok := topoFamilies[kind]
	t := Topo{Kind: kind}
	if !ok || !f.scan(text, f.params(&t)) {
		return Topo{}, fmt.Errorf("harness: cannot parse topology %q (grammar: %s)", s, topoGrammar())
	}
	return t, nil
}

// scan fills ps from a spec's parameter text, one per grammar letter.
func (f topoFamily) scan(text string, ps []any) bool {
	for i, p := range ps {
		tok := text
		if i < len(ps)-1 {
			var ok bool
			if tok, text, ok = strings.Cut(text, f.sep(i+1)); !ok {
				return false
			}
		}
		var err error
		switch p := p.(type) {
		case *int:
			*p, err = strconv.Atoi(tok)
		case *float64:
			*p, err = strconv.ParseFloat(tok, 64)
			if math.IsNaN(*p) {
				return false
			}
		}
		if err != nil {
			return false
		}
	}
	return true
}

// String renders the topology in the ParseTopo grammar (an unregistered
// kind as kind:N).
func (t Topo) String() string {
	f, ok := topoFamilies[t.Kind]
	if !ok {
		f.params = sizeN
	}
	b := []byte(t.Kind)
	for i, p := range f.params(&t) {
		switch p := p.(type) {
		case *int:
			b = fmt.Appendf(b, "%s%d", f.sep(i), *p)
		case *float64:
			b = fmt.Appendf(b, "%s%g", f.sep(i), *p)
		}
	}
	return string(b)
}

// sep is the separator in front of parameter i: ':' after the kind, then
// the grammar's.
func (f topoFamily) sep(i int) string {
	if i == 0 {
		return ":"
	}
	return f.grammar[2*i-1 : 2*i]
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

// buildSeed is the seed as far as Build's output is concerned: 0 for a
// family declared seed-free, which lets the sweep caches share one graph
// across a whole seed axis.
func (t Topo) buildSeed(seed int64) int64 {
	if topoFamilies[t.Kind].seedFree {
		return 0
	}
	return seed
}

// Build constructs the graph. Only the families not declared seed-free
// read the seed; every other family builds the same graph from the same
// Topo.
func (t Topo) Build(seed int64) (*graph.Graph, error) {
	if t.nodes() > sim.MaxNodes {
		return nil, fmt.Errorf("harness: %s has more than sim.MaxNodes=%d nodes", t, sim.MaxNodes)
	}
	if t.arcs() > math.MaxInt32 {
		return nil, fmt.Errorf("harness: %s may have more than %d directed edges, the most a graph's int32 row offsets hold", t, math.MaxInt32)
	}
	f, ok := topoFamilies[t.Kind]
	if !ok {
		return nil, fmt.Errorf("harness: unknown topology kind %q (have %v)", t.Kind, Topologies())
	}
	if need := f.need(t); need != "" {
		return nil, fmt.Errorf("harness: %s %s", t, need)
	}
	return f.build(t, seed), nil
}

// Smaller returns the next-smaller instance of t's family, one node
// fewer, or false when the family has no single size to step down or t
// is at its family's smallest. explore's shrinker re-runs a violation on
// the smaller instances.
func (t Topo) Smaller() (Topo, bool) {
	if minN := topoFamilies[t.Kind].minN; minN == 0 || t.N <= minN {
		return t, false
	}
	t.N--
	return t, true
}

// nodes is the node count of t's row.
func (t Topo) nodes() int64 {
	if f := topoFamilies[t.Kind]; f.nodes != nil {
		return f.nodes(t)
	}
	return int64(t.N)
}

// arcs is the directed-edge bound of t's row. It assumes nodes() is
// within sim.MaxNodes, so n(n-1) cannot overflow.
func (t Topo) arcs() int64 {
	n := t.nodes()
	if f := topoFamilies[t.Kind]; f.arcs != nil {
		return f.arcs(t, n)
	}
	return min(2*n, arcLimit)
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
