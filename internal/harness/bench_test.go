package harness

import (
	"testing"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/sim"
)

// sweepGridBench is the whole-grid benchmark workload: one multihop
// algorithm crossed with two topologies, two crash patterns and three
// overlay families — 12 cells, 96 scenarios — so the benchmark costs the
// cross-cell sharing (topology, diameter and overlay caches) that a
// single-cell benchmark cannot see.
func sweepGridBench() Grid {
	return Grid{
		Algos:    []string{"floodpaxos"},
		Topos:    []Topo{{Kind: "ring", N: 9}, {Kind: "grid", Rows: 3, Cols: 3}},
		Scheds:   []string{"random"},
		Facks:    []int64{4},
		Crashes:  []string{"one@0", "midbroadcast"},
		Overlays: []string{"none", "extra:4", "chords"},
		Seeds:    []int64{1, 2, 3, 4, 5, 6, 7, 8},
	}
}

// BenchmarkSweepCell measures one aggregated sweep cell end to end —
// scenario assembly, the parallel worker pool, consensus checking and
// aggregation — on a fault-injected grid, which is the workload the
// engine's allocation-free broadcast path exists for.
func BenchmarkSweepCell(b *testing.B) {
	// floodpaxos: the one multihop algorithm whose liveness holds for
	// every crash x overlay combination (see cmd/benchsuite).
	grid := Grid{
		Algos:    []string{"floodpaxos"},
		Topos:    []Topo{{Kind: "grid", Rows: 3, Cols: 3}},
		Scheds:   []string{"random"},
		Facks:    []int64{4},
		Crashes:  []string{"one@0"},
		Overlays: []string{"extra:4"},
		Seeds:    []int64{1, 2, 3, 4, 5, 6, 7, 8},
	}
	work := mustCells(b, grid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := SweepCellsOpts(work, SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 1 || !cells[0].OK() {
			b.Fatalf("sweep cell broken: %+v", cells)
		}
	}
}

// BenchmarkSweepCellMetrics is BenchmarkSweepCell with per-cell metric
// aggregation on (SweepOptions.Metrics): one registry per worker, one
// merge per run, one aggregate snapshot per cell. Measured next to the
// pinned metrics-off number so the overhead stays visibly
// O(registered slots + runs), never O(events).
func BenchmarkSweepCellMetrics(b *testing.B) {
	grid := Grid{
		Algos:    []string{"floodpaxos"},
		Topos:    []Topo{{Kind: "grid", Rows: 3, Cols: 3}},
		Scheds:   []string{"random"},
		Facks:    []int64{4},
		Crashes:  []string{"one@0"},
		Overlays: []string{"extra:4"},
		Seeds:    []int64{1, 2, 3, 4, 5, 6, 7, 8},
	}
	work := mustCells(b, grid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := SweepCellsOpts(work, SweepOptions{Metrics: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 1 || !cells[0].OK() || len(cells[0].Metrics) == 0 {
			b.Fatalf("sweep cell broken: %+v", cells)
		}
	}
}

// BenchmarkWPaxosDecideLarge is one whole wPAXOS execution at the scale
// tier — scenario assembly and a run to all-decided on expander:1024:8 —
// with metrics off. Its allocs/op is pinned (BENCH_engine.json): a delivery
// allocates nothing and a broadcast refills the node's own message, so what
// is left is table growth, and a per-delivery or per-broadcast allocation
// coming back shows as a multiple of the pin.
func BenchmarkWPaxosDecideLarge(b *testing.B) {
	sc := Scenario{
		Algo:  "wpaxos",
		Topo:  Topo{Kind: "expander", N: 1024, Deg: 8},
		Sched: "random",
		Fack:  4,
		Seed:  1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg, err := sc.Config()
		if err != nil {
			b.Fatal(err)
		}
		if res := sim.Run(cfg); !consensus.Check(cfg.Inputs, res).Termination {
			b.Fatalf("not all decided after %d events", res.Events)
		}
	}
}

// BenchmarkFloodPaxosDecide is the same row for floodpaxos on the cell of
// bench's decide_flood128 workload, expander:128:8. Its allocs/op is pinned
// (BENCH_engine.json): the per-acceptor dedup table is one byte per id and
// Ω's members a bitset, so what is left is the graph, the nodes and the
// pending response cycles; a map or a sorted slice growing per id heard
// shows as a multiple.
func BenchmarkFloodPaxosDecide(b *testing.B) {
	sc := Scenario{
		Algo:  "floodpaxos",
		Topo:  Topo{Kind: "expander", N: 128, Deg: 8},
		Sched: "random",
		Fack:  4,
		Seed:  1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg, err := sc.Config()
		if err != nil {
			b.Fatal(err)
		}
		if res := sim.Run(cfg); !consensus.Check(cfg.Inputs, res).Termination {
			b.Fatalf("not all decided after %d events", res.Events)
		}
	}
}

// BenchmarkTwoPhaseDecideClique is one whole two-phase execution on the
// single-hop case — scenario assembly and a run to all-decided on
// clique:256 — with metrics off. Its allocs/op is pinned (BENCH_engine.json):
// a delivery allocates nothing, so what is left is the clique itself and
// each node's id set growing to the few blocks 256 dense ids span; a set
// that regrows per id, or a delivery that allocates, shows as a multiple.
func BenchmarkTwoPhaseDecideClique(b *testing.B) {
	sc := Scenario{
		Algo:  "twophase",
		Topo:  Topo{Kind: "clique", N: 256},
		Sched: "random",
		Fack:  4,
		Seed:  1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg, err := sc.Config()
		if err != nil {
			b.Fatal(err)
		}
		if res := sim.Run(cfg); !consensus.Check(cfg.Inputs, res).Termination {
			b.Fatalf("not all decided after %d events", res.Events)
		}
	}
}

// BenchmarkSweepGrid measures a whole multi-cell grid end to end, the
// workload the cell-grouped sweep pipeline exists for: cells share cached
// topologies, diameters and overlays across the cross product, and each
// worker reuses one engine across the seeds of a cell.
func BenchmarkSweepGrid(b *testing.B) {
	work := mustCells(b, sweepGridBench())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := SweepCellsOpts(work, SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 12 {
			b.Fatalf("%d cells, want 12", len(cells))
		}
		for _, c := range cells {
			if !c.OK() {
				b.Fatalf("grid cell broken: %+v", c)
			}
		}
	}
}

// BenchmarkWarmRunWPaxos is the algorithm layer's warm row: Reset and Run
// of one engine on wpaxos expander:256:8, alternating seeds 1 and 2, with
// metrics off. Every op hands the slots' nodes back to the factory
// (amac.NodeConfig.Prev), which re-arms them with the other seed's tables,
// so what is left is a fresh scheduler per op, the tables one seed
// outgrows the other's storage in, and the relay cycles a run left under
// half full (amac.Reuse), about three in four of the allocations. Its
// allocs/op is pinned (BENCH_engine.json): a factory that stops re-arming
// its nodes, or a table that stops keeping its storage, shows as a
// multiple of the pin.
func BenchmarkWarmRunWPaxos(b *testing.B) {
	var cfgs [2]sim.Config
	var events [2]int
	for i := range cfgs {
		cfg, err := Scenario{Algo: "wpaxos", Topo: Topo{Kind: "expander", N: 256, Deg: 8},
			Sched: "random", Fack: 4, Seed: int64(i + 1)}.Config()
		if err != nil {
			b.Fatal(err)
		}
		cfgs[i] = cfg
		events[i] = sim.Run(cfg).Events
	}
	eng := new(sim.Engine)
	op := func(i int) {
		cfg := cfgs[i%2]
		cfg.Scheduler = sim.NewRandom(4, int64(i%2+1))
		eng.Reset(cfg)
		res := eng.Run()
		if decided := consensus.Check(cfg.Inputs, res).Termination; res.Events != events[i%2] || !decided {
			b.Fatalf("seed %d: warm run processed %d events (decided %v), a fresh engine %d",
				i%2+1, res.Events, decided, events[i%2])
		}
	}
	op(0) // untimed: the cold engine and nodes of both seeds
	op(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}
