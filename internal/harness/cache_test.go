package harness

import (
	"reflect"
	"sync"
	"testing"

	"github.com/absmac/absmac/internal/graph"
)

func graphsEqual(a, b *graph.Graph) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for u := 0; u < a.N(); u++ {
		if !reflect.DeepEqual(a.Neighbors(u), b.Neighbors(u)) {
			return false
		}
	}
	return true
}

// TestCacheHitDeterminism pins the cache's core promise: a cached graph,
// diameter or overlay is identical to one built fresh for the same
// scenario — including for the seed-dependent families, where the key
// normalization must NOT collapse distinct seeds.
func TestCacheHitDeterminism(t *testing.T) {
	c := newCaches()
	topos := []Topo{
		{Kind: "grid", Rows: 3, Cols: 3},
		{Kind: "ring", N: 9},
		{Kind: "random", N: 12, P: 0.2},
		{Kind: "fig1a", Diam: 6, N: 6},
		{Kind: "kd", Diam: 3},
	}
	overlays := []string{"none", "chords", "extra:4", "randomextra:0.25@0.8"}
	for _, topo := range topos {
		for _, overlay := range overlays {
			for _, seed := range []int64{1, 2, 3} {
				te, err := c.topo(topo, seed)
				if err != nil {
					t.Fatalf("cached topo %s seed %d: %v", topo, seed, err)
				}
				g, diam := te.g, te.diameter()
				fresh, err := topo.Build(seed)
				if err != nil {
					t.Fatal(err)
				}
				if !graphsEqual(g, fresh) {
					t.Errorf("cached graph for %s seed %d differs from fresh build", topo, seed)
				}
				if want := fresh.Diameter(); diam != want {
					t.Errorf("cached diameter for %s seed %d = %d, want %d", topo, seed, diam, want)
				}
				o, p, err := c.overlay(overlay, topo, g, seed)
				if err != nil {
					t.Fatalf("cached overlay %s on %s seed %d: %v", overlay, topo, seed, err)
				}
				freshO, freshP, err := NewOverlay(overlay, fresh, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !graphsEqual(o, freshO) || p != freshP {
					t.Errorf("cached overlay %s on %s seed %d differs from fresh build", overlay, topo, seed)
				}
			}
		}
	}
	// Inputs: cached assignment equals a fresh one, on K_2, whose hub
	// leaves components for cut to split.
	kd, err := c.topo(Topo{Kind: "kd", Diam: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pattern := range InputPatterns() {
		got, err := c.inputValues(pattern, kd.g)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewInputs(pattern, kd.g.N())
		if mk := graphInputs[pattern]; mk != nil {
			want, err = mk(kd.g)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cached inputs %q differ: %v vs %v", pattern, got, want)
		}
	}
}

// TestCacheSharing pins the key normalization: seed-independent topologies
// share one graph across seeds, the random family does not, and the
// deterministic chords overlay shares while the seeded families do not.
func TestCacheSharing(t *testing.T) {
	c := newCaches()
	ring := Topo{Kind: "ring", N: 8}
	te1, err := c.topo(ring, 1)
	if err != nil {
		t.Fatal(err)
	}
	te2, _ := c.topo(ring, 2)
	g1, g2 := te1.g, te2.g
	if g1 != g2 {
		t.Error("seed-independent topology not shared across seeds")
	}
	rnd := Topo{Kind: "random", N: 10, P: 0.3}
	rte1, err := c.topo(rnd, 1)
	if err != nil {
		t.Fatal(err)
	}
	rte2, _ := c.topo(rnd, 2)
	r1, r2 := rte1.g, rte2.g
	if r1 == r2 {
		t.Error("random topology shared across distinct seeds")
	}
	o1, _, err := c.overlay("chords", ring, g1, 1)
	if err != nil {
		t.Fatal(err)
	}
	o2, _, _ := c.overlay("chords", ring, g1, 2)
	if o1 != o2 {
		t.Error("deterministic chords overlay not shared across seeds")
	}
	e1, _, err := c.overlay("extra:3", ring, g1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e2, _, _ := c.overlay("extra:3", ring, g1, 2)
	if e1 == e2 {
		t.Error("seeded extra overlay shared across distinct seeds")
	}
	// On a seed-dependent base even chords must key per seed: the base
	// graphs differ, so the overlays may too.
	c1, _, err := c.overlay("chords", rnd, r1, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, _, _ := c.overlay("chords", rnd, r2, 2)
	if c1 == c2 {
		t.Error("chords overlay on random bases shared across distinct seeds")
	}
}

// TestCacheConcurrentAccess hammers one cache from many goroutines (the
// sweep's worker-pool shape) — run under -race this is the cache's
// thread-safety test. Every goroutine must observe the same shared entry.
func TestCacheConcurrentAccess(t *testing.T) {
	c := newCaches()
	topos := []Topo{
		{Kind: "grid", Rows: 4, Cols: 4},
		{Kind: "ring", N: 9},
		{Kind: "random", N: 12, P: 0.2},
	}
	const workers = 16
	results := make([][]*graph.Graph, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for _, topo := range topos {
					te, err := c.topo(topo, 3)
					if err != nil || te.g == nil || te.diameter() <= 0 {
						t.Errorf("worker %d: topo %s: entry=%+v err=%v", w, topo, te, err)
						return
					}
					g := te.g
					o, _, err := c.overlay("extra:2", topo, g, 3)
					if err != nil || o == nil {
						t.Errorf("worker %d: overlay on %s: %v", w, topo, err)
						return
					}
					ins, err := c.inputValues("half", g)
					if err != nil || len(ins) != g.N() {
						t.Errorf("worker %d: inputs on %s: %v", w, topo, err)
						return
					}
					results[w] = append(results[w], g, o)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if len(results[w]) != len(results[0]) {
			t.Fatalf("worker %d saw %d graphs, worker 0 saw %d", w, len(results[w]), len(results[0]))
		}
		for i := range results[w] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d graph %d is not the shared cache entry", w, i)
			}
		}
	}
}
