package harness

import (
	"sync"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/graph"
)

// This file holds the build caches: memoized topologies (with their
// diameters, computed on first demand), overlay dual graphs and input
// assignments. Every scenario is built through one (Scenario.build): a
// sweep shares one among its workers, a single run has its own. A sweep
// grid's cross product reuses the same (topo, seed) pair across all of its
// algo/sched/fack/crash/overlay combinations, so building the graph and
// running the all-pairs BFS for the diameter once per key — instead of
// once per scenario — removes the dominant per-run setup cost.
//
// Keys are normalized to maximize sharing: a topology family declared
// seed-free (topoFamily.seedFree) caches under seed 0, so a whole seed
// axis shares one graph; an overlay family declared seed-free does the
// same when its base is seed-free too. The normalization reads exactly
// those declarations, so a cached value is identical to a freshly built
// one — cache_test.go and TestSeedDeclarations pin this.
//
// Cached graphs and input slices are shared across concurrently running
// workers. A graph.Graph is immutable once built, so sharing one needs no
// preparation; an input slice must be treated as immutable, which is
// already the contract of sim.Config.Inputs.

// topoKey keys the topology cache. Topo is a comparable value, so the key
// is a plain struct — no string rendering on the lookup path.
type topoKey struct {
	topo Topo
	seed int64
}

type topoEntry struct {
	once sync.Once
	g    *graph.Graph
	err  error

	diaOnce sync.Once
	dia     int
}

// diameter pays the BFS on the first call only.
func (e *topoEntry) diameter() int {
	e.diaOnce.Do(func() { e.dia = e.g.Diameter() })
	return e.dia
}

type overlayKey struct {
	topo     Topo
	topoSeed int64
	spec     string
	seed     int64
}

type overlayEntry struct {
	once     sync.Once
	g        *graph.Graph
	deliverP float64
	err      error
}

type inputKey struct {
	pattern string
	n       int
}

type inputEntry struct {
	once sync.Once
	vals []amac.Value
	err  error
}

// caches is the memoization state of one sweep (or one single run). The
// zero value is not usable; construct with newCaches. All methods are safe
// for concurrent use: entries are created under a mutex and built exactly
// once via their sync.Once, so concurrent workers asking for the same key
// share one build.
type caches struct {
	mu       sync.Mutex
	topos    map[topoKey]*topoEntry
	overlays map[overlayKey]*overlayEntry
	inputs   map[inputKey]*inputEntry
}

func newCaches() *caches {
	return &caches{
		topos:    map[topoKey]*topoEntry{},
		overlays: map[overlayKey]*overlayEntry{},
		inputs:   map[inputKey]*inputEntry{},
	}
}

// topo returns the entry holding the built graph, memoized per
// (topo, build-seed).
func (c *caches) topo(t Topo, seed int64) (*topoEntry, error) {
	key := topoKey{t, t.buildSeed(seed)}
	c.mu.Lock()
	e, ok := c.topos[key]
	if !ok {
		e = &topoEntry{}
		c.topos[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.g, e.err = t.Build(seed)
	})
	return e, e.err
}

// overlayCacheSeed is the overlay cache-key seed: a family declared
// seed-free shares one entry across the seed axis when its base topology
// is seed-free too; everything else keys on the full seed.
func overlayCacheSeed(spec string, t Topo, seed int64) int64 {
	if overlaySeedFree(spec) && t.buildSeed(seed) == 0 {
		return 0
	}
	return seed
}

// overlay returns the overlay dual graph (nil for "none") and the
// unreliable-edge delivery probability, memoized per
// (topo, topo-seed, spec, overlay-seed). The base graph must be the one
// the topo cache returned for (t, seed).
func (c *caches) overlay(spec string, t Topo, base *graph.Graph, seed int64) (*graph.Graph, float64, error) {
	key := overlayKey{t, t.buildSeed(seed), spec, overlayCacheSeed(spec, t, seed)}
	c.mu.Lock()
	e, ok := c.overlays[key]
	if !ok {
		e = &overlayEntry{}
		c.overlays[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.g, e.deliverP, e.err = NewOverlay(spec, base, seed)
	})
	return e.g, e.deliverP, e.err
}

// inputValues returns the named input assignment for n nodes, memoized per
// (pattern, n). The returned slice is shared: callers must not mutate it.
func (c *caches) inputValues(pattern string, n int) ([]amac.Value, error) {
	if pattern == "" {
		pattern = "alternating"
	}
	key := inputKey{pattern, n}
	c.mu.Lock()
	e, ok := c.inputs[key]
	if !ok {
		e = &inputEntry{}
		c.inputs[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.vals, e.err = NewInputs(pattern, n)
	})
	return e.vals, e.err
}
