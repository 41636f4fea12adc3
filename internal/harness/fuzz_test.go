package harness

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
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
// calls them. ParseTopo, which reads the family table, must accept and
// reject the same strings as referenceParseTopo, return the same Topo,
// print it as referenceString does, and parse its own print back to it.
// Every input must end in an error
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
	// Spellings where a generic parser could part from the per-family
	// one: a separator too many or in the wrong place, signs, an infinite
	// or hexadecimal probability, no parameters at all.
	for _, topo := range []string{"grid:3x4x5", "grid:3:x4", "pods:1:2:3:4", "clique:+3", "random:5:inf", "random:5:0x1p-2", "random:9:0.123456789", "clique"} {
		f.Add(topo, "none", "none", int64(4), int64(1))
	}
	f.Fuzz(func(t *testing.T, topo, crash, overlay string, fack, seed int64) {
		tp, err := ParseTopo(topo)
		ref, refErr := referenceParseTopo(topo)
		if (err == nil) != (refErr == nil) || tp != ref {
			t.Fatalf("ParseTopo(%q) = %+v, %v; the per-family parser gave %+v, %v", topo, tp, err, ref, refErr)
		}
		if err != nil {
			return
		}
		if s := tp.String(); s != referenceString(tp) {
			t.Fatalf("%+v prints as %q, the per-family formatter printed %q", tp, s, referenceString(tp))
		}
		if back, err := ParseTopo(tp.String()); err != nil || back != tp {
			t.Fatalf("%q parses to %+v, whose print %q parses back to %+v, %v", topo, tp, tp.String(), back, err)
		}
		if tp.nodes() > fuzzMaxNodes {
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

// referenceParseTopo is ParseTopo as it was before the family table: one
// switch over the kinds, each with its own parameter code.
func referenceParseTopo(s string) (Topo, error) {
	parts := strings.Split(s, ":")
	kind := parts[0]
	bad := func() (Topo, error) {
		return Topo{}, errors.New("cannot parse")
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
		if err1 != nil || err2 != nil || math.IsNaN(p) {
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

// referenceString is Topo.String as it was before the family table.
func referenceString(t Topo) string {
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
