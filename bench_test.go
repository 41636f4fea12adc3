package absmac_test

// One benchmark per experiment in the index (exp.All, E1..E13): each
// regenerates the workload behind the corresponding `benchsuite` table
// at a representative size, reporting domain metrics (decision time over
// Fack, over D*Fack, ...) alongside the usual ns/op. cmd/benchsuite
// produces the full tables; these targets make every experiment's cost
// and shape measurable with `go test -bench`.

import (
	"fmt"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/baseline/floodpaxos"
	"github.com/absmac/absmac/internal/baseline/gatherall"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/core/twophase"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/exp"
	"github.com/absmac/absmac/internal/ext/benor"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/lowerbound"
	"github.com/absmac/absmac/internal/sim"
)

func mixedInputs(n int) []amac.Value {
	inputs := make([]amac.Value, n)
	for i := range inputs {
		inputs[i] = amac.Value(i % 2)
	}
	return inputs
}

// runConsensus executes one simulator run and fails the benchmark on any
// consensus violation (benchmarks must not time broken runs).
func runConsensus(b *testing.B, cfg sim.Config) *sim.Result {
	b.Helper()
	res := sim.Run(cfg)
	rep := consensus.Check(cfg.Inputs, res)
	if !rep.OK() {
		b.Fatalf("consensus violated: %v", rep.Errors)
	}
	return res
}

// BenchmarkE1FLPExploration measures the valid-step valency exploration
// behind the Theorem 3.2 reproduction (two-phase, n=2, one crash allowed).
func BenchmarkE1FLPExploration(b *testing.B) {
	var visited int
	for i := 0; i < b.N; i++ {
		e := &lowerbound.Explorer{
			N:          2,
			Factory:    twophase.Factory,
			Inputs:     []amac.Value{0, 1},
			MaxCrashes: 1,
		}
		v := e.Valency(nil)
		if !v.Bivalent() || !v.Dead {
			b.Fatalf("unexpected valency %v", v)
		}
		visited = e.Visited()
	}
	b.ReportMetric(float64(visited), "configs")
}

// BenchmarkE2AnonImpossibility measures the Figure 1 construction end to
// end: build both networks, run the control on B and the violation on A.
func BenchmarkE2AnonImpossibility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := lowerbound.RunAnonImpossibility(6, 24)
		if err != nil || !res.ControlOK || !res.ViolationInA {
			b.Fatalf("construction failed: %v %+v", err, res)
		}
	}
}

// BenchmarkE3NoSizeKnowledge measures the Figure 2 construction end to end.
func BenchmarkE3NoSizeKnowledge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := lowerbound.RunSizeImpossibility(4)
		if err != nil || !res.ViolationInKD || !res.ControlLineOK || !res.ControlWithNOK {
			b.Fatalf("construction failed: %v %+v", err, res)
		}
	}
}

// BenchmarkE4TimeLowerBound measures the Theorem 3.10 partition harness.
func BenchmarkE4TimeLowerBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := lowerbound.RunPartition(16, 4)
		if err != nil || !res.HastyViolated {
			b.Fatalf("partition harness failed: %v %+v", err, res)
		}
	}
}

// BenchmarkE5TwoPhase measures two-phase consensus on cliques; the
// decide/Fack metric is the Theorem 4.1 constant (flat in n).
func BenchmarkE5TwoPhase(b *testing.B) {
	const fack = 8
	for _, n := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				res := runConsensus(b, sim.Config{
					Graph:           graph.Clique(n),
					Inputs:          mixedInputs(n),
					Factory:         twophase.Factory,
					Scheduler:       sim.NewRandom(fack, int64(i)),
					StopWhenDecided: true,
				})
				ratio = float64(res.MaxDecideTime) / float64(fack)
			}
			b.ReportMetric(ratio, "decide/Fack")
		})
	}
}

// BenchmarkE6WPaxos measures wPAXOS on lines; the decide/(D*Fack) metric
// is the Theorem 4.6 constant (flat in D).
func BenchmarkE6WPaxos(b *testing.B) {
	const fack = 4
	for _, d := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			g := graph.Line(d + 1)
			var ratio float64
			for i := 0; i < b.N; i++ {
				res := runConsensus(b, sim.Config{
					Graph:           g,
					Inputs:          mixedInputs(d + 1),
					Factory:         wpaxos.NewFactory(wpaxos.Config{N: d + 1}),
					Scheduler:       sim.NewRandom(fack, int64(i)),
					StopWhenDecided: true,
				})
				ratio = float64(res.MaxDecideTime) / float64(int64(d)*fack)
			}
			b.ReportMetric(ratio, "decide/DFack")
		})
	}
}

// BenchmarkE7FloodingBaseline contrasts wPAXOS with the flooding baselines
// on a fixed bottleneck topology (star of lines, diameter 4).
func BenchmarkE7FloodingBaseline(b *testing.B) {
	g := graph.StarOfLines(16, 2)
	n := g.N()
	algos := []struct {
		name    string
		factory amac.Factory
	}{
		{"wpaxos", wpaxos.NewFactory(wpaxos.Config{N: n})},
		{"floodpaxos", floodpaxos.NewFactory(n)},
		{"gatherall", gatherall.NewFactory(n)},
	}
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			var decide float64
			for i := 0; i < b.N; i++ {
				res := runConsensus(b, sim.Config{
					Graph:           g,
					Inputs:          mixedInputs(n),
					Factory:         a.factory,
					Scheduler:       sim.Synchronous{},
					StopWhenDecided: true,
				})
				decide = float64(res.MaxDecideTime)
			}
			b.ReportMetric(decide, "decide-time")
		})
	}
}

// BenchmarkE8TagGrowth measures a wPAXOS run while tracking the largest
// proposal tag used (Lemma 4.4).
func BenchmarkE8TagGrowth(b *testing.B) {
	const n = 32
	g := graph.RandomConnected(n, 0.1, 11)
	var maxTag float64
	for i := 0; i < b.N; i++ {
		var nodes []*wpaxos.Node
		factory := func(nc amac.NodeConfig) amac.Algorithm {
			nd := wpaxos.New(nc.Input, wpaxos.Config{N: n})
			nodes = append(nodes, nd)
			return nd
		}
		runConsensus(b, sim.Config{
			Graph:           g,
			Inputs:          mixedInputs(n),
			Factory:         factory,
			Scheduler:       sim.NewRandom(3, int64(i)),
			StopWhenDecided: true,
		})
		maxTag = 0
		for _, nd := range nodes {
			if t := float64(nd.MaxTagUsed()); t > maxTag {
				maxTag = t
			}
		}
	}
	b.ReportMetric(maxTag, "max-tag")
}

// BenchmarkE9AggregationAudit measures a fully audited wPAXOS run
// (Lemma 4.2's c(p) <= a(p) check enabled).
func BenchmarkE9AggregationAudit(b *testing.B) {
	const n = 20
	g := graph.RandomConnected(n, 0.12, 5)
	for i := 0; i < b.N; i++ {
		audit := wpaxos.NewCountAudit()
		runConsensus(b, sim.Config{
			Graph:           g,
			Inputs:          mixedInputs(n),
			Factory:         wpaxos.NewFactory(wpaxos.Config{N: n, Audit: audit}),
			Scheduler:       sim.NewRandom(3, int64(i)),
			StopWhenDecided: true,
		})
		if v := audit.Violations(); len(v) != 0 {
			b.Fatalf("Lemma 4.2 violated: %v", v)
		}
	}
}

// BenchmarkE10UnknownParticipants measures two-phase consensus where the
// algorithm is handed neither n nor the participant set.
func BenchmarkE10UnknownParticipants(b *testing.B) {
	const n = 33
	for i := 0; i < b.N; i++ {
		runConsensus(b, sim.Config{
			Graph:           graph.Clique(n),
			Inputs:          mixedInputs(n),
			Factory:         twophase.Factory,
			Scheduler:       sim.NewRandom(6, int64(i)),
			StopWhenDecided: true,
			Audit:           true,
		})
	}
}

// BenchmarkSimulatorThroughput measures raw engine event throughput with a
// trivial algorithm on a dense topology.
func BenchmarkSimulatorThroughput(b *testing.B) {
	const n = 64
	g := graph.Clique(n)
	events := 0
	for i := 0; i < b.N; i++ {
		res := sim.Run(sim.Config{
			Graph:           g,
			Inputs:          mixedInputs(n),
			Factory:         twophase.Factory,
			Scheduler:       sim.NewRandom(4, int64(i)),
			StopWhenDecided: true,
		})
		events = res.Events
	}
	b.ReportMetric(float64(events), "events/run")
}

// BenchmarkGraphConstruction measures the paper-topology builders.
func BenchmarkGraphConstruction(b *testing.B) {
	b.Run("figure1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fig := graph.BuildFigure1(10, 64)
			if fig.N == 0 {
				b.Fatal("empty figure")
			}
		}
	})
	b.Run("kd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kd := graph.BuildKD(16)
			if kd.G.N() == 0 {
				b.Fatal("empty kd")
			}
		}
	})
	b.Run("diameter-grid20x20", func(b *testing.B) {
		g := graph.Grid(20, 20)
		for i := 0; i < b.N; i++ {
			if g.Diameter() != 38 {
				b.Fatal("bad diameter")
			}
		}
	})
}

// BenchmarkFullSuite runs the entire experiment suite once per iteration —
// the cost of `go run ./cmd/benchsuite`.
func BenchmarkFullSuite(b *testing.B) {
	if testing.Short() {
		b.Skip("full suite in short mode")
	}
	for i := 0; i < b.N; i++ {
		for _, e := range exp.All() {
			if !e.OK {
				b.Fatalf("%s failed", e.ID)
			}
		}
	}
}

// BenchmarkE11UnreliableLinks measures a dual-graph run: wPAXOS over a
// random topology plus a lossy unreliable overlay (safety audited; the run
// may legitimately stall, which is the measured phenomenon).
func BenchmarkE11UnreliableLinks(b *testing.B) {
	g := graph.Grid(4, 4)
	overlay := graph.RandomOverlay(g, 10, 1)
	for i := 0; i < b.N; i++ {
		audit := wpaxos.NewCountAudit()
		res := sim.Run(sim.Config{
			Graph:           g,
			Unreliable:      overlay,
			Inputs:          mixedInputs(g.N()),
			Factory:         wpaxos.NewFactory(wpaxos.Config{N: g.N(), Audit: audit}),
			Scheduler:       sim.NewLossy(sim.NewRandom(4, int64(i)), 0.5, int64(i)+7),
			StopWhenDecided: true,
		})
		rep := consensus.Check(mixedInputs(g.N()), res)
		if !rep.Agreement {
			b.Fatalf("agreement violated: %v", rep.Errors)
		}
		if v := audit.Violations(); len(v) != 0 {
			b.Fatalf("Lemma 4.2 violated: %v", v)
		}
	}
}

// BenchmarkE12Randomization measures Ben-Or under injected crashes — the
// workload where deterministic algorithms are forbidden to terminate.
func BenchmarkE12Randomization(b *testing.B) {
	const n, f = 5, 2
	for i := 0; i < b.N; i++ {
		inputs := mixedInputs(n)
		res := sim.Run(sim.Config{
			Graph:           graph.Clique(n),
			Inputs:          inputs,
			Factory:         benor.NewFactory(benor.Config{N: n, F: f, Seed: int64(i)}),
			Scheduler:       sim.NewRandom(4, int64(i)*3+1),
			Crashes:         []sim.Crash{{Node: i % n, At: 2}},
			StopWhenDecided: true,
			MaxEvents:       2_000_000,
		})
		rep := consensus.Check(inputs, res)
		if !rep.OK() {
			b.Fatalf("consensus violated: %v", rep.Errors)
		}
	}
}

// BenchmarkE13TreePriorityAblation measures wPAXOS with and without the
// tree queue's leader priority on a line with the leader across the
// diameter.
func BenchmarkE13TreePriorityAblation(b *testing.B) {
	g := graph.Line(25)
	ids := make([]amac.NodeID, g.N())
	for i := range ids {
		ids[i] = amac.NodeID(g.N() - i)
	}
	for _, noPri := range []bool{false, true} {
		name := "with-priority"
		if noPri {
			name = "ablated"
		}
		b.Run(name, func(b *testing.B) {
			var decide float64
			for i := 0; i < b.N; i++ {
				inputs := mixedInputs(g.N())
				res := sim.Run(sim.Config{
					Graph:           g,
					Inputs:          inputs,
					Factory:         wpaxos.NewFactory(wpaxos.Config{N: g.N(), NoTreePriority: noPri}),
					Scheduler:       sim.NewRandom(4, int64(i)),
					IDs:             ids,
					StopWhenDecided: true,
				})
				rep := consensus.Check(inputs, res)
				if !rep.OK() {
					b.Fatalf("consensus violated: %v", rep.Errors)
				}
				decide = float64(res.MaxDecideTime)
			}
			b.ReportMetric(decide, "decide-time")
		})
	}
}
