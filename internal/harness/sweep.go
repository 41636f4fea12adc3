package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/metrics"
	"github.com/absmac/absmac/internal/sim"
	"github.com/absmac/absmac/internal/stats"
)

// Grid is the cross product of scenario axes. Seeds vary fastest and are
// the replication axis: all seeds of one (algo, topo, sched, fack, inputs,
// crashes, overlay) combination aggregate into a single Cell.
type Grid struct {
	Algos  []string
	Topos  []Topo
	Scheds []string
	Facks  []int64
	Inputs []string
	// Crashes and Overlays are the fault axes: registered crash-pattern
	// and overlay-family specs (see NewCrashes and NewOverlay). Either
	// may be empty, defaulting to {"none"} — a fault-free sweep.
	Crashes  []string
	Overlays []string
	Seeds    []int64
	// MaxEvents caps each execution; 0 means sim.DefaultMaxEvents, the one
	// budget. Cells copies it onto every scenario as given.
	MaxEvents int
}

// DefaultSweepMaxEvents is an alias of sim.DefaultMaxEvents, not a second
// budget, kept only because bench/ names it (ROADMAP item 8 deletes it).
const DefaultSweepMaxEvents = sim.DefaultMaxEvents

// CellWork is one sweep work-unit: the scenario family of one cell — every
// axis fixed except the seed — and the seeds that replicate it. Sweeps
// schedule whole cells onto workers, so one worker runs all of a cell's
// seeds back to back on one reusable engine and aggregates them in place.
type CellWork struct {
	// Base is the cell's scenario family; its Seed field is ignored.
	Base Scenario
	// Seeds is the replication axis.
	Seeds []int64
}

// Cells expands the grid into cell work-units, one per
// (algo, topo, inputs, sched, fack, crashes, overlay) combination, in
// axis-nesting order. Empty Inputs defaults to {"alternating"} and the
// empty fault axes to {"none"}; every other axis must be non-empty.
func (g Grid) Cells() ([]CellWork, error) {
	inputs := g.Inputs
	if len(inputs) == 0 {
		inputs = []string{"alternating"}
	}
	crashes := g.Crashes
	if len(crashes) == 0 {
		crashes = []string{"none"}
	}
	overlays := g.Overlays
	if len(overlays) == 0 {
		overlays = []string{"none"}
	}
	// Validate in a fixed order so the reported axis is deterministic
	// when several are empty. An axis is named by the amacsim flag that
	// sets it.
	for _, axis := range []struct {
		flag string
		n    int
	}{
		{"-algo", len(g.Algos)},
		{"-topo", len(g.Topos)},
		{"-sched", len(g.Scheds)},
		{"-fack", len(g.Facks)},
		{"-seeds", len(g.Seeds)},
	} {
		if axis.n == 0 {
			return nil, fmt.Errorf("harness: sweep grid has an empty %s axis", axis.flag)
		}
	}
	if g.MaxEvents < 0 {
		return nil, fmt.Errorf("harness: event cap %d is negative (0 means the default)", g.MaxEvents)
	}
	cells := make([]CellWork, 0, len(g.Algos)*len(g.Topos)*len(inputs)*len(g.Scheds)*len(g.Facks)*len(crashes)*len(overlays))
	for _, algo := range g.Algos {
		for _, topo := range g.Topos {
			for _, in := range inputs {
				for _, sched := range g.Scheds {
					for _, fack := range g.Facks {
						for _, crash := range crashes {
							for _, overlay := range overlays {
								cells = append(cells, CellWork{
									Base: Scenario{
										Algo: algo, Topo: topo, Inputs: in,
										Sched: sched, Fack: fack,
										Crashes: crash, Overlay: overlay,
										MaxEvents: g.MaxEvents,
									},
									Seeds: g.Seeds,
								})
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// Summary is a five-number summary of one per-cell sample.
type Summary struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Mean   float64 `json:"mean"`
	P95    float64 `json:"p95"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) Summary {
	return Summary{
		Min:    stats.Min(xs),
		Median: stats.Median(xs),
		Mean:   stats.Mean(xs),
		P95:    stats.Percentile(xs, 95),
		Max:    stats.Max(xs),
	}
}

// Cell aggregates every seed of one scenario combination.
type Cell struct {
	Algo   string `json:"algo"`
	Topo   string `json:"topo"`
	Inputs string `json:"inputs"`
	Sched  string `json:"sched"`
	// Crashes and Overlay are the cell's fault-axis specs ("none" when
	// the grid had no fault axes).
	Crashes string `json:"crashes"`
	Overlay string `json:"overlay"`
	// Fack is the requested grid-axis value; EffectiveFack is the median
	// bound the scheduler actually declared. They differ for schedulers
	// with a structural bound (edgeorder declares MaxDegree+1), which is
	// why DecidePerFack normalizes by EffectiveFack.
	Fack          int64 `json:"fack"`
	EffectiveFack int64 `json:"effective_fack"`
	// MaxEvents is the cap the cell's scenarios ran under (0: the default).
	MaxEvents int `json:"max_events,omitempty"`

	// N is the node count; Diameter is the median topology diameter
	// across the cell's seeds (both are seed-independent for every
	// family except random, where per-seed graphs differ in shape).
	N        int `json:"n"`
	Diameter int `json:"diameter"`

	// Runs counts executions; Correct counts those consensus.Classify
	// passes (agreement, validity and termination held on a clean
	// substrate); Undecided counts runs where no node decided (those are
	// excluded from the Decide summary).
	Runs      int `json:"runs"`
	Correct   int `json:"correct"`
	Undecided int `json:"undecided"`

	// Decide summarizes the decision latency (max decide time per run)
	// over the runs that decided; DecidePerFack normalizes its median by
	// EffectiveFack. Both are zero when every run was undecided.
	Decide        Summary `json:"decide_time"`
	DecidePerFack float64 `json:"decide_per_fack"`

	// SurvivorDecide summarizes the survivor-only decision latency (the
	// latest decision among non-crashed nodes, per run) over the runs in
	// which some survivor decided. It coincides with Decide in
	// fault-free cells and is the meaningful latency under crash
	// patterns, where Decide may count nodes that decided and then died.
	SurvivorDecide Summary `json:"survivor_decide_time"`

	// Faults summarizes the number of crashed nodes per run, and
	// FaultTerminations counts the runs that had at least one crash yet
	// every survivor still decided — the cell's
	// "termination despite faults" score.
	Faults            Summary `json:"faults"`
	FaultTerminations int     `json:"terminated_despite_faults"`

	// Broadcasts and Deliveries summarize MAC-layer message counts.
	Broadcasts Summary `json:"broadcasts"`
	Deliveries Summary `json:"deliveries"`

	// Metrics lists the cell's aggregated flight-recorder metrics (engine,
	// detector and algorithm counters summed across the cell's runs; gauge
	// high-waters maxed), sorted by name with all-zero rows dropped. Nil
	// unless the sweep asked for metrics (SweepOptions.Metrics), and
	// omitted from the JSON then, so metric-free sweep output does not
	// carry it.
	Metrics []CellMetric `json:"metrics,omitempty"`

	// Errors lists distinct consensus violations observed in the cell.
	Errors []string `json:"errors,omitempty"`

	// Flagged lists the Runs-Correct violating runs in seed order. It is
	// what the campaign layer explores; cell JSON leaves it out.
	Flagged []FlaggedRun `json:"-"`
}

// CellMetric is one aggregated flight-recorder metric of a cell. Counter
// rows carry Value (summed across the cell's runs); gauge rows carry the
// last run's Value plus the maximal High high-water. Zero-valued fields
// are omitted, so each kind serializes only its own columns.
type CellMetric struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Value int64  `json:"value,omitempty"`
	High  int64  `json:"high,omitempty"`
}

// cellMetrics converts an aggregation registry into the cell's metric
// rows: registration-sorted (by name), all-zero rows dropped — a worker's
// registry accumulates registrations across every cell it runs, so slots
// belonging to other algorithms show up zeroed here and must not render.
func cellMetrics(agg *metrics.Registry) []CellMetric {
	samples := agg.Snapshot()
	rows := make([]CellMetric, 0, len(samples))
	for _, s := range samples {
		if s.Value == 0 && s.High == 0 { // a counter's High is always 0
			continue
		}
		rows = append(rows, CellMetric{Name: s.Name, Kind: s.Kind, Value: s.Value, High: s.High})
	}
	if len(rows) == 0 {
		return nil
	}
	return rows
}

// OK reports whether every run in the cell was correct.
func (c *Cell) OK() bool { return c.Correct == c.Runs }

// cellAccum streams one cell's outcomes into preallocated sample slices;
// finish turns them into the aggregated Cell. Outcomes must be added in
// seed order — summaries are order-insensitive, but reproducible cells
// demand a deterministic sample order.
type cellAccum struct {
	cell                           Cell
	started                        bool
	decide, broadcasts, deliveries []float64
	survivorDecide, faults         []float64
	diameters, facks               []float64
	errSeen                        map[string]bool
}

func newCellAccum(runs int) *cellAccum {
	// One backing array for all seven sample slices: a cell's samples
	// live and die together.
	buf := make([]float64, 7*runs)
	return &cellAccum{
		decide:         buf[0*runs : 0*runs : 1*runs],
		broadcasts:     buf[1*runs : 1*runs : 2*runs],
		deliveries:     buf[2*runs : 2*runs : 3*runs],
		survivorDecide: buf[3*runs : 3*runs : 4*runs],
		faults:         buf[4*runs : 4*runs : 5*runs],
		diameters:      buf[5*runs : 5*runs : 6*runs],
		facks:          buf[6*runs : 6*runs : 7*runs],
	}
}

// add folds one outcome in.
func (a *cellAccum) add(o *Outcome) {
	if !a.started {
		a.started = true
		k := o.Scenario.Key()
		a.cell = Cell{Algo: k.Algo, Topo: k.Topo.String(), Inputs: k.Inputs,
			Sched: k.Sched, Crashes: k.Crashes, Overlay: k.Overlay,
			Fack: k.Fack, MaxEvents: o.Scenario.MaxEvents, N: o.N}
	}
	if v := o.Violation(); v == nil {
		a.cell.Correct++
	} else {
		a.cell.Flagged = append(a.cell.Flagged, FlaggedRun{Run: a.cell.Runs, Scenario: o.Scenario, Violation: v})
	}
	a.cell.Runs++
	for _, e := range o.Report.Errors {
		if a.errSeen == nil {
			a.errSeen = map[string]bool{}
		}
		if !a.errSeen[e] {
			a.errSeen[e] = true
			a.cell.Errors = append(a.cell.Errors, e)
		}
	}
	a.diameters = append(a.diameters, float64(o.Diameter))
	a.facks = append(a.facks, float64(o.Fack))
	if o.Result.MaxDecideTime >= 0 {
		a.decide = append(a.decide, float64(o.Result.MaxDecideTime))
	} else {
		a.cell.Undecided++
	}
	if o.Report.SurvivorDecideTime >= 0 {
		a.survivorDecide = append(a.survivorDecide, float64(o.Report.SurvivorDecideTime))
	}
	a.faults = append(a.faults, float64(o.Report.Crashed))
	if o.Report.Crashed > 0 && o.Report.Termination {
		a.cell.FaultTerminations++
	}
	a.broadcasts = append(a.broadcasts, float64(o.Result.Broadcasts))
	a.deliveries = append(a.deliveries, float64(o.Result.Deliveries))
}

func (a *cellAccum) finish() Cell {
	a.cell.Diameter = int(stats.Median(a.diameters))
	a.cell.EffectiveFack = int64(stats.Median(a.facks))
	a.cell.Decide = summarize(a.decide)
	if len(a.decide) > 0 && a.cell.EffectiveFack > 0 {
		a.cell.DecidePerFack = a.cell.Decide.Median / float64(a.cell.EffectiveFack)
	}
	a.cell.SurvivorDecide = summarize(a.survivorDecide)
	a.cell.Faults = summarize(a.faults)
	a.cell.Broadcasts = summarize(a.broadcasts)
	a.cell.Deliveries = summarize(a.deliveries)
	return a.cell
}

// FlaggedRun is one violating execution of a sweep cell: the scenario
// (seed included) and its classification. This is the sweep→explore work
// item: the campaign layer (internal/explore.Campaign) turns each flagged
// cell into a recorded, perturbed and minimized counterexample instead of
// a buried Errors entry.
type FlaggedRun struct {
	// Run is the scenario's position within its cell (seed order).
	Run int
	// Scenario is the complete violating scenario, replayable as is.
	Scenario Scenario
	// Violation classifies what broke (see consensus.Classify).
	Violation *consensus.Violation
}

// SweepOptions tunes a sweep. The zero value is a plain sweep at
// GOMAXPROCS workers.
type SweepOptions struct {
	// Workers is the worker-pool width (<= 0 means GOMAXPROCS).
	Workers int
	// Metrics installs a per-worker metrics.Registry on every run and
	// aggregates each cell's values into Cell.Metrics (counters sum across
	// seeds, gauge high-waters max). Off by default:
	// an unset flag hands the engine a nil registry — disabled
	// handles all the way down — and the sweep hot path stays
	// allocation-identical to a build without the feature.
	Metrics bool
}

func (o SweepOptions) normalized() SweepOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// SweepCellsOpts runs cell work-units (see Grid.Cells) on a worker pool
// and aggregates each into a Cell, in input order. Whole cells are
// scheduled onto workers: each worker reuses one engine across the seeds
// of a cell, and all workers share memoized topology, diameter, overlay
// and input caches. Work-units without seeds or sharing a cell identity
// are rejected, and scenario construction errors abort the sweep;
// consensus violations do not — they are reported per cell, each
// violating run in Cell.Flagged.
func SweepCellsOpts(work []CellWork, opts SweepOptions) ([]Cell, error) {
	seen := make(map[Key]bool, len(work))
	for _, cw := range work {
		if len(cw.Seeds) == 0 {
			return nil, fmt.Errorf("harness: cell %s on %s under %s has no seeds", cw.Base.Algo, cw.Base.Topo, cw.Base.Sched)
		}
		k := cw.Base.Key()
		k.Seed = 0 // a cell's identity: every axis but the replication one
		if seen[k] {
			return nil, fmt.Errorf("harness: duplicate cell %s on %s under %s (crashes %s, overlay %s, Fack %d): merge the work-units",
				k.Algo, k.Topo, k.Sched, k.Crashes, k.Overlay, k.Fack)
		}
		seen[k] = true
	}
	opts = opts.normalized()
	type cellErr struct {
		run int // position within the cell's seeds
		sc  Scenario
		err error
	}
	cells := make([]Cell, len(work))
	errs := make([]cellErr, len(work))
	shared := newCaches()
	// Buffered so the producer never blocks and workers never serialize
	// on an unbuffered handoff.
	next := make(chan int, len(work))
	for i := range work {
		next <- i
	}
	close(next)
	// Captured as a local, not via opts, so the options struct does not
	// escape into the worker closures (the plain sweep path's
	// allocation count is pinned by BENCH_engine.json).
	metricsOn := opts.Metrics
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One executor per worker, so across the seeds of a cell the
			// only per-run allocations are the scenario's own state
			// (algorithm instances, seeded schedulers, outcome and report).
			// An Outcome's Result dies at the worker's next run; the
			// accumulator has extracted what it needs by then.
			x := &executor{caches: shared}
			// One registry per worker, reset by the engine each run; its
			// registrations persist across the worker's cells (they can
			// include other algorithms' slots from earlier cells), which is
			// why cellMetrics drops all-zero rows.
			var reg *metrics.Registry
			if metricsOn {
				reg = metrics.New()
			}
			for gi := range next {
				cw := work[gi]
				acc := newCellAccum(len(cw.Seeds))
				var cellAgg *metrics.Registry
				if metricsOn {
					cellAgg = metrics.New()
				}
				ok := true
				for k, seed := range cw.Seeds {
					s := cw.Base
					s.Seed = seed
					o, _, _, err := x.run(s, Exec{Metrics: reg})
					if err != nil {
						errs[gi] = cellErr{run: k, sc: s, err: err}
						ok = false
						break
					}
					cellAgg.Merge(reg)
					acc.add(o)
				}
				if ok {
					cells[gi] = acc.finish()
					if metricsOn {
						cells[gi].Metrics = cellMetrics(cellAgg)
					}
				}
			}
		}()
	}
	wg.Wait()
	// Report the first failing cell's error, numbering the scenario by its
	// position in cell-major, seed-minor order, so failures are attributed
	// deterministically regardless of worker scheduling.
	start := 0
	for gi, e := range errs {
		if e.err != nil {
			return nil, fmt.Errorf("scenario %d (%s on %s under %s): %w", start+e.run, e.sc.Algo, e.sc.Topo, e.sc.Sched, e.err)
		}
		start += len(work[gi].Seeds)
	}
	return cells, nil
}

// WriteJSON emits the cells as an indented JSON array (the `amacsim -sweep
// -json` output format).
func WriteJSON(w io.Writer, cells []Cell) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cells)
}

// Table renders the cells as a plain-text table. The fault columns report
// the median crashed-node count, the survivor-only decision latency and
// how many faulty runs still terminated (see Cell).
func Table(cells []Cell) *stats.Table {
	t := &stats.Table{Columns: []string{
		"algo", "topo", "inputs", "sched", "crashes", "overlay", "Fack", "n", "D",
		"runs", "ok", "decide med", "decide p95", "decide/Fack",
		"faults med", "sdecide med", "term+faults", "bcast med", "deliv med",
	}}
	for _, c := range cells {
		ok := fmt.Sprintf("%d/%d", c.Correct, c.Runs)
		fack := fmt.Sprint(c.Fack)
		if c.EffectiveFack != c.Fack {
			// Structural schedulers override the requested bound.
			fack = fmt.Sprintf("%d>%d", c.Fack, c.EffectiveFack)
		}
		t.AddRow(c.Algo, c.Topo, c.Inputs, c.Sched, c.Crashes, c.Overlay, fack, c.N, c.Diameter,
			c.Runs, ok, c.Decide.Median, c.Decide.P95, c.DecidePerFack,
			c.Faults.Median, c.SurvivorDecide.Median, c.FaultTerminations,
			c.Broadcasts.Median, c.Deliveries.Median)
	}
	return t
}
