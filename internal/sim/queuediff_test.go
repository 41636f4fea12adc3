package sim_test

import (
	"math/rand"
	"testing"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/core/twophase"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/sim"
)

// The differential queue tests run the engine under the oracle (Watch,
// oracle_test.go) on every registered scheduler crossed with every
// registered crash pattern and overlay family, plus a seeded fuzz loop over
// random scenarios. They live in the external test package because the
// registries are harness's.

// runCheckedScenario runs s under the oracle and returns its crash drops.
func runCheckedScenario(t *testing.T, s harness.Scenario) sim.Drops {
	t.Helper()
	cfg, err := s.Config()
	if err != nil {
		t.Fatalf("%+v: %v", s, err)
	}
	res, drops := sim.RunWatched(t, cfg)
	if res.Events == 0 {
		t.Fatalf("%+v: run processed no events", s)
	}
	return drops
}

// queueDiffSchedSpecs gives each registered scheduler a concrete spec.
var queueDiffSchedSpecs = map[string]string{
	"sync":      "sync",
	"random":    "random",
	"maxdelay":  "maxdelay",
	"edgeorder": "edgeorder",
	"gate":      "gate@8",
}

// schedSpec returns name's spec from queueDiffSchedSpecs.
func schedSpec(t *testing.T, name string) string {
	t.Helper()
	spec, ok := queueDiffSchedSpecs[name]
	if !ok {
		t.Fatalf("no differential spec for scheduler %q — add one to queueDiffSchedSpecs", name)
	}
	return spec
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
// every registered crash pattern and overlay family on grid:3x3, whose
// centre is the hub gate silences. Its runs must drop events of all three
// kinds, or the oracle's crash rule goes unchecked.
func TestQueueDifferentialRegistry(t *testing.T) {
	topo, err := harness.ParseTopo("grid:3x3")
	if err != nil {
		t.Fatal(err)
	}
	var drops sim.Drops
	for _, sched := range harness.Schedulers() {
		sched := schedSpec(t, sched)
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
				drops.Add(runCheckedScenario(t, harness.Scenario{
					Algo:      "twophase",
					Topo:      topo,
					Sched:     sched,
					Fack:      4,
					Seed:      11,
					Crashes:   spec,
					Overlay:   ospec,
					MaxEvents: 50_000,
				}))
			}
		}
	}
	if drops.Receiver == 0 || drops.Sender == 0 || drops.Ack == 0 {
		t.Fatalf("drops %+v: some kind of crash drop never happened", drops)
	}
}

// TestQueueDifferentialFuzz runs a seeded loop of random scenarios —
// random family, algorithm, scheduler, bound, adversity — under the oracle.
// gate draws its family from those with a hub to silence.
func TestQueueDifferentialFuzz(t *testing.T) {
	topos := []string{
		"ring:8", "grid:3x4", "clique:6", "tree:2x3", "expander:16:4",
		"pods:3:6:2", "star:7", "line:9", "random:12:0.3", "starlines:2x3", "fig1b:6:8",
	}
	hubs := []string{"star:7", "grid:3x3", "kd:3", "fig1a:6:8"}
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
		spec, algo, sched := topos[rng.Intn(len(topos))], algos[rng.Intn(len(algos))], scheds[rng.Intn(len(scheds))]
		if sched == "gate" {
			spec, sched = hubs[rng.Intn(len(hubs))], schedSpec(t, sched)
		}
		topo, err := harness.ParseTopo(spec)
		if err != nil {
			t.Fatal(err)
		}
		runCheckedScenario(t, harness.Scenario{
			Algo:      algo,
			Topo:      topo,
			Sched:     sched,
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
// panic, and runs as the oracle requires.
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
	// Built against star:12, whose hub gate silences and whose highest
	// degree is the clique's.
	star := graph.Star(clique.N())
	for _, name := range harness.Schedulers() {
		s, err := harness.NewScheduler(schedSpec(t, name), 6, 3, star)
		if err != nil {
			t.Fatal(err)
		}
		scheds = append(scheds, namedSched{"registered " + name, s})
	}
	inputs := alternating(clique.N())
	for _, tc := range scheds {
		cfg, o := sim.Watch(t, sim.Config{
			Graph:     clique,
			Inputs:    inputs,
			Factory:   twophase.Factory,
			Scheduler: tc.s,
		})
		e := sim.NewEngine(cfg)
		if span, f := e.QueueSpan(), tc.s.Fack(); span <= f || span > 2*f {
			t.Errorf("%s: ring spans %d buckets for Fack %d, want the smallest power of two above it", tc.name, span, f)
		}
		res := e.Run()
		o.Check(res)
		if !consensus.Check(inputs, res).Termination {
			t.Errorf("%s: run did not decide (events %d)", tc.name, res.Events)
		}
	}
}
