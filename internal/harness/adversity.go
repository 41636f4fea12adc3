package harness

import (
	"cmp"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
)

// This file holds the adversity registries: named crash-failure patterns
// and unreliable-link overlay families, mirroring the algorithm, topology,
// scheduler and input registries in harness.go. Together they let a
// Scenario name a full adversarial setup — the paper's mid-broadcast
// crashes (Theorem 3.2) and the dual-graph model variant of Kuhn, Lynch
// and Newport (Section 2) — instead of leaving sim.Config.Crashes and
// sim.Config.Unreliable reachable only from hand-rolled code.

// --- crash-pattern registry ---
//
// A crash pattern maps (n, fack, seed) to a concrete crash schedule. The
// spec grammar is name[@T] where the optional @T parameter is accepted
// only by patterns that take a time argument:
//
//	none           no crashes (the default; the empty spec parses as none)
//	one@T          the highest-index node crashes at time T
//	maxid@T        alias of one@T with the leader-death reading spelled
//	               out: the highest-index node carries the maximum id under
//	               the default identity assignment, so it is the node every
//	               max-id leader election converges on — crashing it at T
//	               kills the stable leader and exercises the Ω detector's
//	               demotion path
//	coordinator    node 0 — the lowest id, two-phase's coordinator —
//	               crashes at time Fack (after its first broadcast window)
//	midbroadcast   node 0 crashes at max(1, Fack/2): inside the first
//	               broadcast window, so some planned deliveries land and
//	               the rest (plus the ack) are lost — Theorem 3.2's
//	               mid-broadcast crash
//	minorityrand   a seeded random minority (floor((n-1)/2) nodes) crashes
//	               at seeded random times in [0, 4*Fack]
//
// Crash times are derived from the scenario's requested Fack axis value
// (schedulers with a structural bound may declare a different Fack; the
// patterns still land inside or near the first windows, which is what the
// experiments vary).

type crashCtor struct {
	takesArg bool
	mk       func(at int64, n int, fack, seed int64) []sim.Crash
}

var crashPatterns = map[string]crashCtor{
	"none": {mk: func(_ int64, _ int, _, _ int64) []sim.Crash { return nil }},
	"one": {takesArg: true, mk: func(at int64, n int, _, _ int64) []sim.Crash {
		return []sim.Crash{{Node: n - 1, At: at}}
	}},
	"maxid": {takesArg: true, mk: func(at int64, n int, _, _ int64) []sim.Crash {
		return []sim.Crash{{Node: n - 1, At: at}}
	}},
	"coordinator": {mk: func(_ int64, _ int, fack, _ int64) []sim.Crash {
		return []sim.Crash{{Node: 0, At: fack}}
	}},
	"midbroadcast": {mk: func(_ int64, _ int, fack, _ int64) []sim.Crash {
		at := fack / 2
		if at < 1 {
			at = 1
		}
		return []sim.Crash{{Node: 0, At: at}}
	}},
	"minorityrand": {mk: func(_ int64, n int, fack, seed int64) []sim.Crash {
		k := (n - 1) / 2
		if k == 0 {
			return nil
		}
		rng := rand.New(rand.NewSource(minorityRandSeed(seed)))
		perm := rng.Perm(n)
		crashes := make([]sim.Crash, k)
		for i := range crashes {
			crashes[i] = sim.Crash{Node: perm[i], At: rng.Int63n(4*fack + 1)}
		}
		// Deterministic order by node for reproducible JSON/debugging.
		sort.Slice(crashes, func(i, j int) bool { return crashes[i].Node < crashes[j].Node })
		return crashes
	}},
}

// CrashPatterns returns the registered crash-pattern family names, sorted.
func CrashPatterns() []string { return sortedKeys(crashPatterns) }

// NewCrashes builds the named crash pattern for an n-node execution with
// the given requested Fack and seed. The empty spec means "none".
func NewCrashes(spec string, n int, fack, seed int64) ([]sim.Crash, error) {
	if spec == "" {
		spec = "none"
	}
	name, arg, hasArg := strings.Cut(spec, "@")
	ctor, ok := crashPatterns[name]
	if !ok {
		return nil, fmt.Errorf("harness: unknown crash pattern %q (have %v; grammar name[@T])", spec, CrashPatterns())
	}
	var at int64
	if hasArg {
		if !ctor.takesArg {
			return nil, fmt.Errorf("harness: crash pattern %q takes no @T argument (got %q)", name, spec)
		}
		v, err := strconv.ParseInt(arg, 10, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("harness: bad crash time in %q: want a non-negative integer", spec)
		}
		at = v
	} else if ctor.takesArg {
		return nil, fmt.Errorf("harness: crash pattern %q needs an @T argument (e.g. %q)", name, name+"@0")
	}
	if n < 1 {
		return nil, fmt.Errorf("harness: crash pattern %q on %d nodes", spec, n)
	}
	return ctor.mk(at, n, fack, seed), nil
}

// --- overlay-family registry ---
//
// An overlay family builds the unreliable-link graph of the dual-graph
// model variant from the base topology and the seed; overlays are
// edge-disjoint from the base by construction (and re-checked by
// sim.Config.Validate). The spec grammar is family[:param][@Q] where Q in
// [0,1] is the per-edge delivery probability the lossy scheduler wrapper
// uses for unreliable edges (default 0.5):
//
//	none           no overlay (the default; the empty spec parses as none)
//	randomextra:P  a seeded uniform sample of round(P * #non-edges) of the
//	               base's non-edges becomes unreliable — the overlay's
//	               density is a fixed P-fraction for every seed (only the
//	               edge choice varies), keeping sweep cells comparable
//	extra:K        exactly K seeded random non-edges become unreliable
//	chords         the antipodal chords {u, u+n/2 mod n} not in the base —
//	               a deterministic long-range overlay (ring+chords when the
//	               base is a ring)
//
// When a scenario names an overlay, the harness wraps its scheduler in
// sim.Lossy so the unreliable edges actually carry (some) messages.

// DefaultOverlayDeliverP is the unreliable-edge delivery probability used
// when an overlay spec has no @Q suffix.
const DefaultOverlayDeliverP = 0.5

type overlayCtor struct {
	mk func(arg string, base *graph.Graph, seed int64) (*graph.Graph, error)
	// seedFree declares that the overlay is fully determined by its base
	// graph, as topoFamily.seedFree does for a topology.
	seedFree bool
}

var overlayFamilies = map[string]overlayCtor{
	"none": {seedFree: true, mk: func(arg string, _ *graph.Graph, _ int64) (*graph.Graph, error) {
		if arg != "" {
			return nil, fmt.Errorf("harness: overlay none takes no parameter")
		}
		return nil, nil
	}},
	"randomextra": {mk: func(arg string, base *graph.Graph, seed int64) (*graph.Graph, error) {
		p, err := strconv.ParseFloat(arg, 64)
		if err != nil || !(p >= 0 && p <= 1) { // NaN is no probability either
			return nil, fmt.Errorf("harness: randomextra needs a probability in [0,1], got %q", arg)
		}
		n := base.N()
		nonEdges := n*(n-1)/2 - base.M()
		extra := int(p*float64(nonEdges) + 0.5)
		return graph.RandomOverlay(base, extra, seed), nil
	}},
	"extra": {mk: func(arg string, base *graph.Graph, seed int64) (*graph.Graph, error) {
		k, err := strconv.Atoi(arg)
		if err != nil || k < 0 {
			return nil, fmt.Errorf("harness: extra needs a non-negative edge count, got %q", arg)
		}
		return graph.RandomOverlay(base, k, seed), nil
	}},
	"chords": {seedFree: true, mk: func(arg string, base *graph.Graph, _ int64) (*graph.Graph, error) {
		if arg != "" {
			return nil, fmt.Errorf("harness: chords takes no parameter")
		}
		n := base.N()
		var chords [][2]int
		seen := map[[2]int]bool{}
		for u := 0; u < n; u++ {
			v := (u + n/2) % n
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			if v == u || base.HasEdge(u, v) || seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			chords = append(chords, [2]int{u, v})
		}
		return graph.FromEdges(n, chords), nil
	}},
}

// overlaySeedFree reports the seed declaration of a spec's family (the
// empty spec is "none").
func overlaySeedFree(spec string) bool {
	return overlayFamilies[cmp.Or(overlayFamily(spec), "none")].seedFree
}

// overlayFamily returns the family name of a spec — the token before the
// first ':' (parameter) or '@' (delivery probability). It is the single
// parser of that part of the grammar: NewOverlay and the sweep cache keys
// both go through it, so they cannot drift apart.
func overlayFamily(spec string) string {
	body, _, _ := strings.Cut(spec, "@")
	family, _, _ := strings.Cut(body, ":")
	return family
}

// Overlays returns the registered overlay family names, sorted.
func Overlays() []string { return sortedKeys(overlayFamilies) }

// overlayDeliverP returns the unreliable-edge delivery probability a spec
// declares — its @Q suffix, DefaultOverlayDeliverP without one — for the
// lossy wrapper (NewOverlay) and for recordings (Schedule.DeliverP).
func overlayDeliverP(spec string) (float64, error) {
	_, q, hasQ := strings.Cut(spec, "@")
	if !hasQ {
		return DefaultOverlayDeliverP, nil
	}
	v, err := strconv.ParseFloat(q, 64)
	if err != nil || !(v >= 0 && v <= 1) { // NaN is no probability either
		return 0, fmt.Errorf("harness: bad delivery probability in overlay %q: want @Q with Q in [0,1]", spec)
	}
	return v, nil
}

// NewOverlay builds the named overlay for the base topology. It returns
// the unreliable graph (nil for "none") and the unreliable-edge delivery
// probability the scenario's scheduler should be wrapped with. The empty
// spec means "none".
func NewOverlay(spec string, base *graph.Graph, seed int64) (*graph.Graph, float64, error) {
	if spec == "" {
		spec = "none"
	}
	deliverP, err := overlayDeliverP(spec)
	if err != nil {
		return nil, 0, err
	}
	body, _, _ := strings.Cut(spec, "@")
	name := overlayFamily(spec)
	_, arg, _ := strings.Cut(body, ":")
	ctor, ok := overlayFamilies[name]
	if !ok {
		return nil, 0, fmt.Errorf("harness: unknown overlay family %q (have %v; grammar family[:param][@Q])", spec, Overlays())
	}
	o, err := ctor.mk(arg, base, overlaySeed(seed))
	if err != nil {
		return nil, 0, err
	}
	return o, deliverP, nil
}
