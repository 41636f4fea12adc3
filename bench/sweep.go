package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/sim"
)

// sweepWorkload runs the four canonical grids of cmd/benchsuite (restated
// here: package main cannot be imported) as one cell-grouped sweep at
// Workers 1. One op is one scenario run; one timed sample is one pass.
type sweepWorkload struct{}

const (
	sweepSeeds  = 16
	sweepPasses = 9 // per ten measured seconds
)

func (sweepWorkload) name() string { return "sweep_grid" }
func (sweepWorkload) why() string {
	return "the four canonical grids (288 cells, 7 algorithms, n<=16, crash patterns x overlays) x 16 seeds at Workers 1: thousands of Resets and factory calls, allocation-heavy, faults injected; 9 passes per 10s"
}

// canonicalGrids mirrors cmd/benchsuite's canonicalGrids over the given
// seeds.
func canonicalGrids(seeds []int64) []harness.Grid {
	return []harness.Grid{
		{ // singlehop: every algorithm on the clique
			Algos:  []string{"twophase", "wpaxos", "floodpaxos", "gatherall", "benor", "anonflood", "waitall"},
			Topos:  []harness.Topo{{Kind: "clique", N: 4}, {Kind: "clique", N: 8}},
			Scheds: []string{"sync", "random", "maxdelay"},
			Facks:  []int64{2, 8},
			Seeds:  seeds,
		},
		{ // multihop: the multihop-capable algorithms across the topology zoo
			Algos: []string{"wpaxos", "floodpaxos", "gatherall"},
			Topos: []harness.Topo{
				{Kind: "line", N: 8},
				{Kind: "ring", N: 9},
				{Kind: "grid", Rows: 4, Cols: 4},
				{Kind: "tree", Branch: 2, Depth: 3},
				{Kind: "starlines", Arms: 4, ArmLen: 2},
				{Kind: "random", N: 16, P: 0.15},
				{Kind: "expander", N: 16, Deg: 4},
				{Kind: "pods", Pods: 4, PodSize: 4, Cross: 2},
			},
			Scheds: []string{"sync", "random", "maxdelay"},
			Facks:  []int64{2, 8},
			Seeds:  seeds,
		},
		{ // faultclique: crash patterns on the single-hop topology
			Algos:   []string{"wpaxos", "floodpaxos", "benor"},
			Topos:   []harness.Topo{{Kind: "clique", N: 8}},
			Scheds:  []string{"sync", "random"},
			Facks:   []int64{4},
			Crashes: []string{"one@0", "coordinator", "midbroadcast", "maxid@6"},
			Seeds:   seeds,
		},
		{ // faultmultihop: crash x overlay cross product
			Algos:    []string{"wpaxos", "floodpaxos"},
			Topos:    []harness.Topo{{Kind: "ring", N: 9}, {Kind: "grid", Rows: 3, Cols: 3}},
			Scheds:   []string{"random"},
			Facks:    []int64{4},
			Crashes:  []string{"one@0", "midbroadcast", "maxid@6"},
			Overlays: []string{"none", "randomextra:0.25", "chords"},
			Seeds:    seeds,
		},
	}
}

func sweepWork(a runArgs) ([]harness.CellWork, error) {
	n := sweepSeeds
	if a.toy {
		n = 2
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = scenarioSeed(a.seed, i)
	}
	var work []harness.CellWork
	for _, g := range canonicalGrids(seeds) {
		cells, err := g.Cells()
		if err != nil {
			return nil, err
		}
		work = append(work, cells...)
	}
	return work, nil
}

// sweepPass is one pass over the work.
type sweepPass struct {
	wall, allocMB float64
	liveMB        float64 // reachable after the pass, its cells included
	cells         []harness.Cell
	sum           [sha256.Size]byte // of the cell JSON
	runs          int
	bad           int // runs that failed their consensus check
}

func runSweepPass(work []harness.CellWork, workers int, tr *tracer) (sweepPass, error) {
	var (
		p   sweepPass
		err error
	)
	runtime.GC()
	alloc0 := totalAlloc()
	t0 := time.Now()
	spanned(tr, spSweep, func() {
		p.cells, err = harness.SweepCellsOpts(work, harness.SweepOptions{Workers: workers})
	})
	p.wall = time.Since(t0).Seconds()
	p.allocMB = float64(totalAlloc()-alloc0) / mb
	p.liveMB = float64(liveHeap()) / mb
	if err != nil {
		return p, err
	}
	var buf bytes.Buffer
	if err := harness.WriteJSON(&buf, p.cells); err != nil {
		return p, err
	}
	p.sum = sha256.Sum256(buf.Bytes())
	for i := range p.cells {
		p.runs += p.cells[i].Runs
		p.bad += p.cells[i].Runs - p.cells[i].Correct
	}
	return p, nil
}

// cellDeliveries is the cell's total MAC-layer deliveries.
func cellDeliveries(c *harness.Cell) float64 { return c.Deliveries.Mean * float64(c.Runs) }

func (w sweepWorkload) run(a runArgs, o *outcome) error {
	work, err := sweepWork(a)
	if err != nil {
		return err
	}
	if a.trace {
		return w.runTraced(a, o, work)
	}
	// Set-up is one full warm-up pass: it fills nothing that survives (the
	// sweep's caches are per call) but warms the allocator and the code.
	var setups []float64
	var ref sweepPass
	for moreSetups(a, setups) {
		t0 := time.Now()
		if ref, err = runSweepPass(work, 1, nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	passes := scaledReps(sweepPasses, a.seconds)
	if a.toy {
		passes = 1
	}
	var walls, allocs, lives []float64
	var last sweepPass
	for i := 0; i < passes; i++ {
		if last, err = runSweepPass(work, 1, nil); err != nil {
			return err
		}
		o.Attempted += last.runs
		o.Failed += last.bad
		if last.bad > 0 {
			o.problem("pass %d: %d runs failed their consensus check", i, last.bad)
		}
		if last.sum != ref.sum {
			o.problem("pass %d: cell JSON differs from the warm-up pass", i)
		}
		walls = append(walls, last.wall/float64(last.runs))
		allocs = append(allocs, last.allocMB/float64(last.runs))
		lives = append(lives, last.liveMB)
	}

	// Byte-identical at any worker width: one pass at Workers 2.
	wide, err := runSweepPass(work, 2, nil)
	if err != nil {
		return err
	}
	if wide.sum != ref.sum {
		o.problem("cell JSON differs between Workers 1 and 2")
	}

	var deliveries float64
	var ratios []float64
	for i := range last.cells {
		c := &last.cells[i]
		deliveries += cellDeliveries(c)
		ratios = append(ratios, c.Decide.Median/float64(int64(c.Diameter)*c.EffectiveFack))
	}
	o.EndToEnd["wall_s_per_op"] = timing(walls, "s")
	o.EndToEnd.set(endToEnd, "deliveries_per_op", deliveries/float64(last.runs))
	o.EndToEnd.set(endToEnd, "decide_ticks_per_dfack", median(ratios))
	o.EndToEnd.set(endToEnd, "alloc_mb_per_op", median(allocs))
	o.EndToEnd.set(endToEnd, "live_heap_mb", median(lives))
	o.finishEndToEnd(setups)
	return nil
}

// handDriven runs every scenario of the work the way a sweep worker does —
// one reused engine, Reset + Run + Check + Classify per scenario — but from
// here, so the shims can be installed. It returns the summed op wall, the
// total deliveries, and the traced aggregate per algorithm.
func handDriven(work []harness.CellWork, tr *tracer, o *outcome) (wall float64, deliveries int, events float64, byAlgo map[string]spanAggs, err error) {
	byAlgo = map[string]spanAggs{}
	var eng *sim.Engine
	for _, cw := range work {
		for _, seed := range cw.Seeds {
			sc := cw.Base
			sc.Seed = seed
			var cfg sim.Config
			spanned(tr, spConfig, func() { cfg, err = sc.Config() })
			if err != nil {
				return
			}
			var before spanAggs
			if tr != nil {
				before = tr.agg
			}
			res, v, w := execOp(&eng, cfg, tr)
			if v != nil {
				o.problem("hand-driven %s on %s seed %d: %s", sc.Algo, sc.Topo, seed, v.Kind)
			}
			wall += w
			deliveries += res.Deliveries
			events += float64(res.Events)
			if tr != nil {
				d := tr.agg.sub(before)
				sum := byAlgo[sc.Algo]
				sum.add(d)
				byAlgo[sc.Algo] = sum
			}
		}
	}
	return
}

func (w sweepWorkload) runTraced(a runArgs, o *outcome, work []harness.CellWork) error {
	tr := newTracer()
	pl := o.PerLayer

	ref, err := runSweepPass(work, 1, nil) // warm-up, and the untraced reference
	if err != nil {
		return err
	}
	narrow, err := runSweepPass(work, 1, tr)
	if err != nil {
		return err
	}
	wide, err := runSweepPass(work, 2, tr)
	if err != nil {
		return err
	}
	o.Attempted += narrow.runs
	o.Failed += narrow.bad
	if narrow.sum != ref.sum || wide.sum != ref.sum {
		o.problem("cell JSON differs between passes or worker widths")
	}
	pl.set(perLayer, "harness.sweep_scaling_w2", narrow.wall/wide.wall)
	var sweepDeliveries float64
	for i := range narrow.cells {
		sweepDeliveries += cellDeliveries(&narrow.cells[i])
	}

	// The same scenarios by hand: untraced for what the sweep adds on top
	// of raw engine work, traced for the layer shares.
	bareWall, bareDeliveries, events, _, err := handDriven(work, nil, o)
	if err != nil {
		return err
	}
	pl.set(perLayer, "harness.sweep_overhead_share", (narrow.wall-bareWall)/narrow.wall)
	pl.set(perLayer, "sim.engine.host_ns_per_event", bareWall*1e9/events)
	sweepAgg := tr.agg
	tracedWall, tracedDeliveries, _, byAlgo, err := handDriven(work, tr, o)
	if err != nil {
		return err
	}
	if float64(bareDeliveries) != sweepDeliveries || tracedDeliveries != bareDeliveries {
		o.problem("deliveries differ: sweep %.0f, hand-driven %d, traced %d", sweepDeliveries, bareDeliveries, tracedDeliveries)
	}
	pass := tr.agg.sub(sweepAgg)
	runs := float64(narrow.runs)
	// One op is one scenario run, so every layer time below is per run.
	lt := layerTimes(tr, pass, runs)
	lt.emit(pl, events/runs)
	for _, algo := range sweepAlgos {
		one := layerTimes(tr, byAlgo[algo], runs)
		pl.set(perLayer, "algo."+algo+".share", one.algo()/lt.total())
	}
	pl.set(perLayer, "harness.config_s", tr.self(pass, spConfig)/runs)
	pl.set(perLayer, "sim.engine.deliveries", float64(bareDeliveries)/runs)
	pl.set(perLayer, "sim.engine.events", events/runs)
	pl.set(perLayer, "trace.overhead_ratio", tracedWall/bareWall)

	if err := graphProbe(pl, tr, work); err != nil {
		return err
	}
	detectorProbe(pl, a)
	return tr.finish(a, o, []spanAggs{pass})
}

// graphProbe times what the sweep's per-pass topology cache fills: one
// build and one diameter per distinct (topology, seed) of the work.
func graphProbe(pl values, tr *tracer, work []harness.CellWork) error {
	type key struct {
		topo harness.Topo
		seed int64
	}
	seen := map[key]bool{}
	before := tr.agg
	edges := 0
	for _, cw := range work {
		for _, seed := range cw.Seeds {
			k := key{cw.Base.Topo, seed}
			if seen[k] {
				continue
			}
			seen[k] = true
			var err error
			tr.span(spBuild, func() {
				var g *graph.Graph
				if g, err = cw.Base.Topo.Build(seed); err != nil {
					return
				}
				edges += g.M()
				tr.span(spDiameter, func() { g.Diameter() })
			})
			if err != nil {
				return fmt.Errorf("bench: build %s: %w", cw.Base.Topo, err)
			}
		}
	}
	d := tr.agg.sub(before)
	pl.set(perLayer, "graph.build_s", tr.self(d, spBuild))
	pl.set(perLayer, "graph.diameter_s", tr.self(d, spDiameter))
	pl.set(perLayer, "graph.edges", float64(edges))
	return nil
}
