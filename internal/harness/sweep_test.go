package harness

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/sim"
)

func testGrid() Grid {
	return Grid{
		Algos:  []string{"wpaxos", "gatherall"},
		Topos:  []Topo{{Kind: "clique", N: 6}, {Kind: "line", N: 5}},
		Scheds: []string{"sync", "random"},
		Facks:  []int64{2, 5},
		Seeds:  []int64{1, 2, 3},
	}
}

// mustCells expands g into cell work-units.
func mustCells(t testing.TB, g Grid) []CellWork {
	t.Helper()
	work, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	return work
}

// mustSweep sweeps g's cells at the given worker width.
func mustSweep(t testing.TB, g Grid, workers int) []Cell {
	t.Helper()
	cells, err := SweepCellsOpts(mustCells(t, g), SweepOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func TestGridExpansion(t *testing.T) {
	g := testGrid()
	g.Crashes = []string{"none", "one@0"}
	work := mustCells(t, g)
	if want := 2 * 2 * 2 * 2 * 2; len(work) != want {
		t.Fatalf("expanded %d cells, want %d", len(work), want)
	}
	// Seeds are the replication axis inside each cell, and the fault axes
	// are innermost: consecutive cells differ only in the crash spec.
	for _, cw := range work {
		if !reflect.DeepEqual(cw.Seeds, g.Seeds) {
			t.Fatalf("cell %+v has seeds %v, want %v", cw.Base, cw.Seeds, g.Seeds)
		}
	}
	a, b := work[0].Base, work[1].Base
	if a.Crashes == b.Crashes || a.Algo != b.Algo || a.Fack != b.Fack || a.Sched != b.Sched {
		t.Fatalf("crash spec is not the innermost varying axis: %+v then %+v", a, b)
	}
}

// TestGridEmptyAxisDeterministicError pins the validation order: with
// several axes empty the reported axis is always the first in the fixed
// algos/topos/scheds/facks/seeds order (the old map iteration made it
// random).
func TestGridEmptyAxisDeterministicError(t *testing.T) {
	for i := 0; i < 20; i++ {
		_, err := Grid{Seeds: []int64{1}}.Cells()
		if err == nil {
			t.Fatal("grid with empty axes accepted")
		}
		if want := "empty algos axis"; !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name the first empty axis (%q)", err, want)
		}
	}
}

// TestSweepCellsRejectsMalformedWork pins SweepCellsOpts' validation: cells
// without seeds and duplicate cell identities fail loudly instead of
// producing empty-but-OK or duplicate rows.
func TestSweepCellsRejectsMalformedWork(t *testing.T) {
	base := Scenario{Algo: "twophase", Topo: Topo{Kind: "clique", N: 4}, Sched: "sync", Fack: 2}
	if _, err := SweepCellsOpts([]CellWork{{Base: base}}, SweepOptions{Workers: 1}); err == nil || !strings.Contains(err.Error(), "no seeds") {
		t.Fatalf("seedless cell accepted (err=%v)", err)
	}
	dup := []CellWork{
		{Base: base, Seeds: []int64{1}},
		{Base: base, Seeds: []int64{2}},
	}
	if _, err := SweepCellsOpts(dup, SweepOptions{Workers: 1}); err == nil || !strings.Contains(err.Error(), "duplicate cell") {
		t.Fatalf("duplicate cell identity accepted (err=%v)", err)
	}
}

func TestGridEmptyAxis(t *testing.T) {
	g := testGrid()
	g.Facks = nil
	if _, err := g.Cells(); err == nil {
		t.Fatal("empty Facks axis accepted")
	}
	// Inputs is the one axis allowed to be empty (defaults to alternating).
	g = testGrid()
	g.Inputs = nil
	if in := mustCells(t, g)[0].Base.Inputs; in != "alternating" {
		t.Fatalf("default input pattern %q, want alternating", in)
	}
}

func TestSweepAggregation(t *testing.T) {
	work := mustCells(t, testGrid())
	cells := mustSweep(t, testGrid(), 4)
	if want := 2 * 2 * 2 * 2; len(cells) != want {
		t.Fatalf("%d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.Runs != 3 {
			t.Errorf("cell %s/%s/%s: %d runs, want 3 (one per seed)", c.Algo, c.Topo, c.Sched, c.Runs)
		}
		if !c.OK() {
			t.Errorf("cell %s/%s/%s: %d/%d correct: %v", c.Algo, c.Topo, c.Sched, c.Correct, c.Runs, c.Errors)
		}
		if c.N == 0 || c.Decide.Median <= 0 || c.Broadcasts.Median <= 0 {
			t.Errorf("cell %s/%s/%s: empty aggregates %+v", c.Algo, c.Topo, c.Sched, c)
		}
		if c.Decide.Min > c.Decide.Median || c.Decide.Median > c.Decide.Max {
			t.Errorf("cell %s/%s/%s: summary out of order %+v", c.Algo, c.Topo, c.Sched, c.Decide)
		}
	}
	// Cell order follows the expansion order.
	for i, cw := range work {
		if cells[i].Algo != cw.Base.Algo || cells[i].Topo != cw.Base.Topo.String() || cells[i].Sched != cw.Base.Sched || cells[i].Fack != cw.Base.Fack {
			t.Fatalf("cell %d does not follow work order: %+v vs %+v", i, cells[i], cw.Base)
		}
	}
}

// TestSweepParallelMatchesSerial proves the worker pool does not leak
// nondeterminism into results: one worker and many workers produce
// identical cells.
func TestSweepParallelMatchesSerial(t *testing.T) {
	serial := mustSweep(t, testGrid(), 1)
	parallel := mustSweep(t, testGrid(), 8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel sweep differs from serial sweep")
	}
}

func TestSweepScenarioError(t *testing.T) {
	ok := Scenario{Algo: "twophase", Topo: Topo{Kind: "clique", N: 4}, Sched: "sync", Fack: 2}
	bad := ok
	bad.Algo = "nope"
	work := []CellWork{{Base: ok, Seeds: []int64{1, 2, 3}}, {Base: bad, Seeds: []int64{7}}}
	// The failing scenario is numbered in cell-major, seed-minor order.
	_, err := SweepCellsOpts(work, SweepOptions{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "scenario 3 (nope on clique:4 under sync)") {
		t.Fatalf("sweep of an invalid scenario returned %v, want an error naming scenario 3", err)
	}
}

func TestWriteJSON(t *testing.T) {
	cells := mustSweep(t, Grid{
		Algos:  []string{"twophase"},
		Topos:  []Topo{{Kind: "clique", N: 4}},
		Scheds: []string{"random"},
		Facks:  []int64{3},
		Seeds:  []int64{1, 2},
	}, 0)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, cells); err != nil {
		t.Fatal(err)
	}
	var back []Cell
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("sweep JSON does not round-trip: %v", err)
	}
	if !reflect.DeepEqual(back, cells) {
		t.Fatal("JSON round trip changed the cells")
	}
	if back[0].Topo != "clique:4" {
		t.Fatalf("topology serialized as %q, want compact grammar", back[0].Topo)
	}
}

// TestCellAccumUndecided feeds the streaming accumulator a hand-built mix
// of decided and undecided outcomes: the -1 "nobody decided" sentinel must
// not leak into the latency summary, and the cell must count the undecided
// runs.
func TestCellAccumUndecided(t *testing.T) {
	sc := Scenario{Algo: "twophase", Topo: Topo{Kind: "clique", N: 2}, Sched: "sync", Fack: 2}
	mk := func(decideTime int64, terminated bool) *Outcome {
		rep := &consensus.Report{Agreement: true, Validity: true, Termination: terminated}
		if !terminated {
			rep.Errors = []string{"termination violated"}
		}
		return &Outcome{
			Scenario: sc,
			Result:   &sim.Result{MaxDecideTime: decideTime},
			Report:   rep,
			N:        2, Diameter: 1, Fack: 2,
		}
	}
	acc := newCellAccum(3)
	for _, o := range []*Outcome{mk(10, true), mk(-1, false), mk(20, true)} {
		acc.add(o, false)
	}
	c := acc.finish()
	if c.Runs != 3 || c.Correct != 2 || c.Undecided != 1 {
		t.Fatalf("runs/correct/undecided = %d/%d/%d, want 3/2/1", c.Runs, c.Correct, c.Undecided)
	}
	if c.Decide.Min != 10 || c.Decide.Max != 20 || c.Decide.Mean != 15 {
		t.Fatalf("undecided sentinel leaked into latency summary: %+v", c.Decide)
	}
	if c.DecidePerFack <= 0 {
		t.Fatalf("DecidePerFack = %v, want positive", c.DecidePerFack)
	}
	if len(c.Errors) != 1 {
		t.Fatalf("errors %v, want the termination violation", c.Errors)
	}

	// All-undecided cells report zero latency rather than -1.
	acc = newCellAccum(1)
	acc.add(mk(-1, false), false)
	c = acc.finish()
	if c.Undecided != 1 || c.Decide.Median != 0 || c.DecidePerFack != 0 {
		t.Fatalf("all-undecided cell: %+v", c)
	}
}

// TestEffectiveFack pins down that cells report the scheduler's declared
// bound, not the requested axis value, for structural schedulers.
func TestEffectiveFack(t *testing.T) {
	g := Grid{
		Algos:  []string{"twophase"},
		Topos:  []Topo{{Kind: "clique", N: 8}}, // max degree 7
		Scheds: []string{"edgeorder", "sync"},
		Facks:  []int64{4},
		Seeds:  []int64{1},
	}
	// Cells passes the grid's cap through as given: the one default
	// lives in the engine.
	for _, me := range []int{0, 1234} {
		g.MaxEvents = me
		if got := mustCells(t, g)[0].Base.MaxEvents; got != me {
			t.Fatalf("Grid.MaxEvents=%d: cell scenarios carry MaxEvents=%d", me, got)
		}
	}
	g.MaxEvents = 0
	cells := mustSweep(t, g, 1)
	byName := map[string]Cell{}
	for _, c := range cells {
		byName[c.Sched] = c
	}
	if c := byName["edgeorder"]; c.Fack != 4 || c.EffectiveFack != 8 {
		t.Fatalf("edgeorder cell fack=%d effective=%d, want 4 and MaxDegree+1=8", c.Fack, c.EffectiveFack)
	}
	if c := byName["sync"]; c.EffectiveFack != 4 {
		t.Fatalf("sync cell effective fack=%d, want the requested 4", c.EffectiveFack)
	}
	if c := byName["edgeorder"]; c.DecidePerFack != c.Decide.Median/8 {
		t.Fatalf("edgeorder DecidePerFack=%v not normalized by the declared bound", c.DecidePerFack)
	}
}

func TestTableRender(t *testing.T) {
	cells := []Cell{{
		Algo: "wpaxos", Topo: "clique:4", Inputs: "alternating", Sched: "sync",
		Fack: 2, N: 4, Diameter: 1, Runs: 3, Correct: 3,
		Decide: Summary{Min: 10, Median: 12, Mean: 12, P95: 14, Max: 14},
	}}
	out := Table(cells).Render()
	for _, want := range []string{"wpaxos", "clique:4", "3/3", "12.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

// TestSweepMetricsAggregation: with SweepOptions.Metrics on, every cell
// reports non-empty aggregated metric rows, sorted by name with no
// leakage of another algorithm's slots (a worker's registry is reused
// across cells), and the result is identical at any worker-pool width.
func TestSweepMetricsAggregation(t *testing.T) {
	cells, err := Grid{
		Algos:  []string{"wpaxos", "floodpaxos"},
		Topos:  []Topo{{Kind: "ring", N: 6}},
		Scheds: []string{"random"},
		Facks:  []int64{3},
		Seeds:  []int64{1, 2, 3},
	}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(workers int) []Cell {
		out, err := SweepCellsOpts(cells, SweepOptions{Workers: workers, Metrics: true})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := sweep(1)
	for _, c := range serial {
		if len(c.Metrics) == 0 {
			t.Fatalf("cell %s: no metrics", c.Algo)
		}
		byName := map[string]CellMetric{}
		for i, m := range c.Metrics {
			if i > 0 && c.Metrics[i-1].Name >= m.Name {
				t.Fatalf("cell %s: metrics not name-sorted: %q before %q", c.Algo, c.Metrics[i-1].Name, m.Name)
			}
			byName[m.Name] = m
		}
		// Engine counters: every run processes events and delivers.
		if byName["sim_events"].Value == 0 || byName["sim_deliveries"].Value == 0 {
			t.Fatalf("cell %s: engine counters empty: %+v", c.Algo, c.Metrics)
		}
		if byName["sim_queue_depth"].High == 0 {
			t.Fatalf("cell %s: queue-depth high-water is zero", c.Algo)
		}
		// Algorithm counters stay with their algorithm: a wpaxos cell must
		// not render floodpaxos slots and vice versa (worker registries are
		// shared across cells; all-zero rows are dropped).
		other := "flood_"
		if c.Algo == "floodpaxos" {
			other = "wpaxos_"
		}
		for name := range byName {
			if strings.HasPrefix(name, other) {
				t.Fatalf("cell %s: leaked slot %q from another algorithm", c.Algo, name)
			}
		}
		if byName[map[string]string{"wpaxos": "wpaxos_proposals", "floodpaxos": "flood_proposals"}[c.Algo]].Value == 0 {
			t.Fatalf("cell %s: no proposals counted: %+v", c.Algo, c.Metrics)
		}
	}
	if parallel := sweep(4); !reflect.DeepEqual(serial, parallel) {
		t.Fatal("metric aggregation differs between 1 and 4 workers")
	}
}

// TestSweepMetricsIndependentOfCellOrderAndWidth: a cell's metrics are a
// function of its executions alone. A worker reuses one engine (slab,
// ring, registry) across the cells it runs, so anything that measured the
// engine's warm-up would differ with what the worker ran earlier: run the
// same cells in permuted orders on one worker, and at widths 1/2/8, and
// require identical Cell.Metrics every time.
func TestSweepMetricsIndependentOfCellOrderAndWidth(t *testing.T) {
	cells, err := Grid{
		Algos:  []string{"wpaxos", "floodpaxos", "twophase", "gatherall"},
		Topos:  []Topo{{Kind: "ring", N: 6}, {Kind: "clique", N: 9}},
		Scheds: []string{"random"},
		Facks:  []int64{3},
		Seeds:  []int64{1, 2, 3},
	}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(work []CellWork, workers int) []Cell {
		out, err := SweepCellsOpts(work, SweepOptions{Workers: workers, Metrics: true})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := sweep(cells, 1)
	for _, c := range want {
		if len(c.Metrics) == 0 {
			t.Fatalf("cell %s %s: no metrics", c.Algo, c.Topo)
		}
	}
	for _, w := range []int{2, 8} {
		if got := sweep(cells, w); !reflect.DeepEqual(want, got) {
			t.Fatalf("cells differ between 1 and %d workers", w)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 4; round++ {
		perm := rng.Perm(len(cells))
		if round == 0 { // the exact reverse: every cell inherits the other neighbour's warm-up
			for i := range perm {
				perm[i] = len(cells) - 1 - i
			}
		}
		work := make([]CellWork, len(cells))
		for i, p := range perm {
			work[i] = cells[p]
		}
		got := sweep(work, 1)
		for i, p := range perm {
			if !reflect.DeepEqual(want[p], got[i]) {
				t.Fatalf("round %d: cell %s %s differs when run at position %d instead of %d:\n%+v\n%+v",
					round, want[p].Algo, want[p].Topo, i, p, want[p].Metrics, got[i].Metrics)
			}
		}
	}
}

// TestSweepMetricsOffLeavesJSONUnchanged: the metrics field must not
// appear in cell JSON when the sweep did not ask for metrics — the golden
// grid output is pinned byte-for-byte elsewhere, this pins the mechanism.
func TestSweepMetricsOffLeavesJSONUnchanged(t *testing.T) {
	cells, err := Grid{
		Algos:  []string{"wpaxos"},
		Topos:  []Topo{{Kind: "clique", N: 4}},
		Scheds: []string{"sync"},
		Facks:  []int64{2},
		Seeds:  []int64{1},
	}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	out, err := SweepCellsOpts(cells, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "\"metrics\"") {
		t.Fatal("metric-free sweep JSON contains a metrics field")
	}
}
