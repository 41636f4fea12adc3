package harness

import (
	"testing"

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
		if res := sim.Run(cfg); !res.AllDecided() {
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
		if res := sim.Run(cfg); !res.AllDecided() {
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
