package sim_test

import (
	"math/rand"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/core/twophase"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/sim"
)

// The differential queue test is the pop-order oracle for all queue work:
// an engine runs with the reference heap attached (Engine.CheckQueueOrder
// mirrors every push and asserts every pop is the heap's minimum) on every
// registered scheduler crossed with every registered crash pattern and
// overlay family, plus a seeded fuzz loop over random scenarios. It lives
// in the external test package because the registries are harness's.

// runChecked runs cfg on a fresh engine under the reference heap and
// asserts the oracle saw every processed event.
func runChecked(t *testing.T, cfg sim.Config) *sim.Result {
	t.Helper()
	e := sim.NewEngine(cfg)
	checked := e.CheckQueueOrder(t)
	res := e.Run()
	if checked() != res.Events {
		t.Fatalf("oracle checked %d pops, engine processed %d events", checked(), res.Events)
	}
	return res
}

func runCheckedScenario(t *testing.T, s harness.Scenario) {
	t.Helper()
	cfg, err := s.Config()
	if err != nil {
		t.Fatalf("%+v: %v", s, err)
	}
	if res := runChecked(t, cfg); res.Events == 0 {
		t.Fatalf("%+v: run processed no events", s)
	}
}

// queueDiffCrashSpecs gives each registered crash pattern a concrete spec.
var queueDiffCrashSpecs = map[string]string{
	"none":         "none",
	"one":          "one@2",
	"maxid":        "maxid@3",
	"coordinator":  "coordinator",
	"midbroadcast": "midbroadcast",
	"minorityrand": "minorityrand",
}

// queueDiffOverlaySpecs gives each registered overlay family a concrete
// spec.
var queueDiffOverlaySpecs = map[string]string{
	"none":        "none",
	"chords":      "chords",
	"extra":       "extra:3",
	"randomextra": "randomextra:0.3",
}

// TestQueueDifferentialRegistry drives every registered scheduler through
// every registered crash pattern and overlay family.
func TestQueueDifferentialRegistry(t *testing.T) {
	topo, err := harness.ParseTopo("grid:3x3")
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range harness.Schedulers() {
		for _, crash := range harness.CrashPatterns() {
			spec, ok := queueDiffCrashSpecs[crash]
			if !ok {
				t.Fatalf("no differential spec for crash pattern %q — add one to queueDiffCrashSpecs", crash)
			}
			for _, overlay := range harness.Overlays() {
				ospec, ok := queueDiffOverlaySpecs[overlay]
				if !ok {
					t.Fatalf("no differential spec for overlay family %q — add one to queueDiffOverlaySpecs", overlay)
				}
				runCheckedScenario(t, harness.Scenario{
					Algo:      "twophase",
					Topo:      topo,
					Sched:     sched,
					Fack:      4,
					Seed:      11,
					Crashes:   spec,
					Overlay:   ospec,
					MaxEvents: 50_000,
				})
			}
		}
	}
}

// TestQueueDifferentialFuzz runs a seeded loop of random scenarios —
// random family, algorithm, scheduler, bound, adversity — under the oracle.
func TestQueueDifferentialFuzz(t *testing.T) {
	topos := []string{
		"ring:8", "grid:3x4", "clique:6", "tree:2x3", "expander:16:4",
		"pods:3:6:2", "star:7", "line:9", "random:12:0.3", "starlines:2x3",
	}
	algos := harness.Algorithms()
	scheds := harness.Schedulers()
	crashes := []string{"none", "one@1", "maxid@5", "coordinator", "midbroadcast", "minorityrand"}
	overlays := []string{"none", "chords", "extra:2", "randomextra:0.2"}
	rng := rand.New(rand.NewSource(0xD1FF))
	iters := 40
	if testing.Short() {
		iters = 8
	}
	for i := 0; i < iters; i++ {
		topo, err := harness.ParseTopo(topos[rng.Intn(len(topos))])
		if err != nil {
			t.Fatal(err)
		}
		runCheckedScenario(t, harness.Scenario{
			Algo:      algos[rng.Intn(len(algos))],
			Topo:      topo,
			Sched:     scheds[rng.Intn(len(scheds))],
			Fack:      1 + rng.Int63n(8),
			Seed:      rng.Int63n(1 << 30),
			Crashes:   crashes[rng.Intn(len(crashes))],
			Overlay:   overlays[rng.Intn(len(overlays))],
			MaxEvents: 50_000,
		})
	}
}

// TestQueueRingCoversDeclaredHorizon pins the queue invariant: for every
// registered scheduler and the wide-horizon wrappers, Reset sizes the ring
// past the declared Fack, and a full run — whose every delivery and ack
// validatePlan confines to that horizon — never trips push's out-of-ring
// panic.
func TestQueueRingCoversDeclaredHorizon(t *testing.T) {
	clique := graph.Clique(12)
	type namedSched struct {
		name string
		s    sim.Scheduler
	}
	scheds := []namedSched{
		{"gate", sim.Gate{Base: sim.NewRandom(4, 3), Gated: map[int]bool{0: true, 5: true}, Until: 50}},
		{"slowsubset", sim.SlowSubset{Base: sim.NewRandom(4, 3), Slow: map[int]bool{1: true, 2: true}, Factor: 25}},
		{"edgeorder on clique", &sim.EdgeOrder{MaxDegree: clique.N() - 1}},
	}
	for _, name := range harness.Schedulers() {
		s, err := harness.NewScheduler(name, 6, 3, clique)
		if err != nil {
			t.Fatal(err)
		}
		scheds = append(scheds, namedSched{"registered " + name, s})
	}
	inputs := make([]amac.Value, clique.N())
	for i := range inputs {
		inputs[i] = amac.Value(i % 2)
	}
	for _, tc := range scheds {
		e := sim.NewEngine(sim.Config{
			Graph:     clique,
			Inputs:    inputs,
			Factory:   twophase.Factory,
			Scheduler: tc.s,
		})
		if span, f := e.QueueSpan(), tc.s.Fack(); span <= f || span > 2*f {
			t.Errorf("%s: ring spans %d buckets for Fack %d, want the smallest power of two above it", tc.name, span, f)
		}
		e.CheckQueueOrder(t)
		if res := e.Run(); !consensus.Check(inputs, res).Termination {
			t.Errorf("%s: run did not decide (events %d)", tc.name, res.Events)
		}
	}
}
