package harness

import (
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/sim"
)

// fuzzMaxNodes bounds the topologies FuzzScenarioGrammar builds: larger
// specs only parse, so one input never costs more than a few milliseconds.
const fuzzMaxNodes = 512

// FuzzScenarioGrammar drives the three spec grammars that come in from
// flags and artifact files — ParseTopo, NewCrashes and NewOverlay — with
// arbitrary strings, a Fack and a seed, in the order Scenario.build
// calls them. Every input must end in an error
// or in a valid build: a topology of at most fuzzMaxNodes nodes, a crash
// schedule and an overlay that sim.Config.Validate accepts around it.
// Never a panic. The seeds are the registered example specs, so
// `go test` runs them in tier-1; `go test -fuzz FuzzScenarioGrammar`
// explores from there.
func FuzzScenarioGrammar(f *testing.F) {
	topos := []string{"clique:16", "line:5", "ring:9", "star:6", "grid:4x4", "tree:2x3",
		"starlines:3x2", "random:24:0.1", "expander:64:8", "pods:4:4:1"}
	crashes := []string{"none", "one@0", "maxid@10", "coordinator", "midbroadcast", "minorityrand"}
	overlays := []string{"none", "randomextra:0.1", "extra:4", "chords", "extra:4@0.6"}
	for i, topo := range topos {
		f.Add(topo, crashes[i%len(crashes)], overlays[i%len(overlays)], int64(4), int64(i))
	}
	// Inputs that once panicked or built nonsense: a dense expander the
	// stub pairing could not close, and NaN probabilities, which every
	// range check written as p < 0 || p > 1 let through.
	f.Add("expander:16:14", "none", "none", int64(4), int64(1))
	f.Add("random:24:NaN", "none", "randomextra:NaN", int64(4), int64(1))
	f.Add("ring:9", "none", "extra:4@NaN", int64(4), int64(1))
	// Four-node meshes asking for 5·10^8 cross links, whose edge list was
	// sized from that count before a single link was drawn.
	f.Add("pods:2:2:500000000", "none", "none", int64(4), int64(1))
	f.Add("pods:1:4:500000000", "none", "none", int64(4), int64(1))
	f.Fuzz(func(t *testing.T, topo, crash, overlay string, fack, seed int64) {
		tp, err := ParseTopo(topo)
		if err != nil || tp.nodes() > fuzzMaxNodes {
			return
		}
		g, err := tp.Build(seed)
		if err != nil {
			return
		}
		n := g.N()
		if int64(n) != tp.nodes() {
			t.Fatalf("%s built %d nodes, its parameters multiply out to %d", topo, n, tp.nodes())
		}
		// Scenario.build's order: the crash patterns take the Fack the
		// scheduler accepted.
		sched, err := NewScheduler("random", fack, seed, g)
		if err != nil {
			return
		}
		cs, err := NewCrashes(crash, n, fack, seed)
		if err != nil {
			return
		}
		unreliable, deliverP, err := NewOverlay(overlay, g, seed)
		if err != nil {
			return
		}
		if !(deliverP >= 0 && deliverP <= 1) {
			t.Fatalf("overlay %q: delivery probability %v outside [0,1]", overlay, deliverP)
		}
		cfg := sim.Config{
			Graph:      g,
			Inputs:     make([]amac.Value, n),
			Factory:    func(amac.NodeConfig) amac.Algorithm { return nil },
			Scheduler:  sched,
			Unreliable: unreliable,
			Crashes:    cs,
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("topo %q crashes %q overlay %q: %v", topo, crash, overlay, err)
		}
	})
}
