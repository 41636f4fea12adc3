// Package harness assembles and runs simulator scenarios by name.
//
// A Scenario names everything one execution needs — algorithm, topology,
// input pattern, scheduler, Fack, seed, crash pattern, overlay family —
// and the package holds the registries that map those names to
// constructors. The CLIs (cmd/amacsim, cmd/benchsuite) and the examples
// build on these registries instead of hand-rolling their own switch
// statements, so a new algorithm, topology family, scheduler, crash
// pattern or overlay registered here becomes available everywhere at once.
//
// The adversity registries (adversity.go) cover the paper's fault models:
// crash patterns schedule sim.Crash failures — including Theorem 3.2's
// mid-broadcast crash — and overlay families build the unreliable
// dual graph of the Kuhn–Lynch–Newport model variant, with a lossy
// scheduler wrapper delivering over its edges probabilistically.
//
// On top of single scenarios, sweep.go expands a Grid (the cross product
// of named axes, now including the two fault axes) into cell work-units —
// one per (algo, topo, inputs, sched, fack, crashes, overlay) combination,
// seeds inside — and schedules whole cells onto a GOMAXPROCS-wide worker
// pool, aggregating per-cell decision-latency, survivor-latency, fault and
// message-count distributions in streaming accumulators. Execution is
// cell-grouped for performance: a worker runs all seeds of a cell back to
// back on one reusable sim.Engine (NewEngine/Reset), and all workers share
// the sweep's memoized caches (cache.go) of built topologies, their
// diameters and overlay dual graphs keyed by (topo, seed) — normalized to
// a shared key when the family ignores its seed — plus named input
// assignments keyed by (pattern, n). Everything that depends only on
// (topo, seed) is computed once per sweep instead of once per scenario;
// per-seed state (schedulers, algorithm instances, crash schedules) is
// always built fresh. Scenario.Run stays the uncached single-execution
// API. See cmd/amacsim's package comment for the sweep grammar.
//
// Sweeps also feed the campaign layer (internal/explore.Campaign):
// SweepCellsOpts streams every violating run out of the cell workers as a
// FlaggedRun the moment it is classified (consensus.Classify — the same
// judgment the explorer applies to perturbed schedules), and can wrap each
// run in a sim.Fingerprinter to report per-cell schedule coverage
// (Cell.DistinctSchedules — how many distinct delivery orderings the seeds
// actually exercised) and stop a cell early when coverage saturates. Both
// are opt-in: a plain sweep builds neither and its hot path is pinned
// allocation-for-allocation by BENCH_engine.json.
//
// Scenarios are also recordable and replayable (record.go):
// Scenario.RunRecorded captures every nondeterministic decision of a run
// — each broadcast's delivery plan with its unreliable-edge coin
// outcomes, plus the crash schedule — into a sim.Schedule, and a
// ReplayRunner re-executes schedules (recorded, perturbed or minimized)
// against the scenario's fixed configuration on a reusable engine,
// byte-identically for an unmodified recording. internal/explore builds
// its schedule-space search and counterexample minimizer on these; the
// golden test in replay_golden_test.go holds the committed stall artifact
// under testdata/ to this contract.
package harness

import (
	"fmt"
	"sort"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/baseline/anonflood"
	"github.com/absmac/absmac/internal/baseline/floodpaxos"
	"github.com/absmac/absmac/internal/baseline/gatherall"
	"github.com/absmac/absmac/internal/baseline/waitall"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/core/twophase"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/ext/benor"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/metrics"
	"github.com/absmac/absmac/internal/sim"
)

// Scenario names one execution: which algorithm, on which topology, with
// which inputs, under which scheduler. Scenarios are plain values — they
// marshal to JSON, compare with ==, and rebuild identical executions, which
// is what makes sweeps reproducible.
type Scenario struct {
	// Algo is a registered algorithm name (see Algorithms).
	Algo string `json:"algo"`
	// Topo describes the topology (see ParseTopo for the string grammar).
	Topo Topo `json:"topo"`
	// Inputs is a registered input-pattern name (see InputPatterns).
	// Empty means "alternating".
	Inputs string `json:"inputs,omitempty"`
	// Sched is a registered scheduler name (see Schedulers).
	Sched string `json:"sched"`
	// Fack is the scheduler's delivery bound.
	Fack int64 `json:"fack"`
	// Seed feeds the scheduler, the algorithm (when randomized), the
	// random topology family, and the crash/overlay registries.
	Seed int64 `json:"seed"`
	// Crashes is a registered crash-pattern spec (see NewCrashes).
	// Empty means "none".
	Crashes string `json:"crashes,omitempty"`
	// Overlay is a registered overlay-family spec (see NewOverlay)
	// building the unreliable dual graph. Empty means "none". A non-none
	// overlay also wraps the scheduler in sim.Lossy with the spec's
	// delivery probability, so the unreliable edges carry messages.
	Overlay string `json:"overlay,omitempty"`
	// MaxEvents optionally caps the execution (0 means the simulator
	// default). Sweeps set it so one non-quiescent cell cannot stall the
	// whole grid.
	MaxEvents int `json:"-"`
	// Metrics optionally installs a flight-recorder registry on the
	// execution (see internal/metrics; `amacsim -metrics` sets it). Never
	// serialized — a replayed artifact produces identical metrics because
	// the execution is identical, not because the registry is recorded.
	// Sweeps ignore it and install per-worker registries through
	// SweepOptions.Metrics instead.
	Metrics *metrics.Registry `json:"-"`
	// InputValues optionally overrides Inputs with an explicit
	// assignment (length must match the topology's node count).
	InputValues []amac.Value `json:"-"`
}

// Outcome is the result of running one Scenario: the raw simulator result
// plus the consensus-property report and the built topology's shape.
type Outcome struct {
	Scenario Scenario
	Result   *sim.Result
	Report   *consensus.Report
	// N and Diameter describe the topology the run was built on (they
	// vary with the seed for the random family).
	N        int
	Diameter int
	// Fack is the delivery bound the scheduler actually declared, which
	// differs from Scenario.Fack for schedulers with a structural bound
	// (edgeorder declares MaxDegree+1 and ignores the requested value).
	Fack int64
}

// OK reports whether the run decided everywhere and satisfied agreement,
// validity and termination.
func (o *Outcome) OK() bool { return o.Report.OK() }

// Violation classifies the outcome (see consensus.Classify), or nil when
// the run was clean. Sweep workers use it to flag violating runs for the
// campaign layer; internal/explore uses the same classification to judge
// perturbed and minimized schedules, so a run flagged here is exactly a
// run the explorer would report.
func (o *Outcome) Violation() *consensus.Violation {
	return consensus.Classify(o.Report, o.Result)
}

// --- algorithm registry ---

type algoCtor func(n int, seed int64) amac.Factory

var algorithms = map[string]algoCtor{
	"twophase":   func(int, int64) amac.Factory { return twophase.Factory },
	"wpaxos":     func(n int, _ int64) amac.Factory { return wpaxos.NewFactory(wpaxos.Config{N: n}) },
	"floodpaxos": func(n int, _ int64) amac.Factory { return floodpaxos.NewFactory(n) },
	"gatherall":  func(n int, _ int64) amac.Factory { return gatherall.NewFactory(n) },
	"benor": func(n int, seed int64) amac.Factory {
		return benor.NewFactory(benor.Config{N: n, F: (n - 1) / 2, Seed: seed})
	},
	// The two defeated baselines take a round budget derived from a
	// diameter bound; the registry only knows n, so it uses the universal
	// bound diameter <= n-1. That keeps them correct exactly where the
	// paper says they are (crash-free reliable executions whose scheduler
	// lets information traverse within the budget) while sweeps can now
	// reach the regimes that defeat them. Algorithms that consume the
	// seed must also appear in seededAlgos below.
	"anonflood": func(n int, _ int64) amac.Factory {
		return anonflood.NewFactory(anonflood.RoundsForDiameter(n - 1))
	},
	"waitall": func(n int, _ int64) amac.Factory {
		return waitall.NewFactory(waitall.RoundsForDiameter(n - 1))
	},
}

// seededAlgos names the registered algorithms whose behaviour depends on
// the scenario seed (they draw randomness of their own — benor's coin
// flips — rather than inheriting all nondeterminism from the scheduler).
// Coverage fingerprinting consults it: see fingerprintSalt.
var seededAlgos = map[string]bool{"benor": true}

// fingerprintSalt returns the word to fold into the scenario's coverage
// fingerprint beyond the schedule digest: the seed when the execution
// depends on it through channels the digest cannot see (algorithm RNG,
// a seed-built topology, a seed-built overlay), 0 otherwise. Salting
// makes every seed of such a cell a distinct "ordering", which is
// exactly right — saturation must never skip seeds that genuinely change
// the execution, and DistinctSchedules must count executions, not
// schedule skeletons.
func (s Scenario) fingerprintSalt() int64 {
	if seededAlgos[s.Algo] || s.Topo.buildSeed(s.Seed) != 0 ||
		(s.Overlay != "" && s.Overlay != "none" && overlaySeedDependent(overlayFamily(s.Overlay))) {
		return s.Seed
	}
	return 0
}

// Algorithms returns the registered algorithm names, sorted.
func Algorithms() []string { return sortedKeys(algorithms) }

// NewFactory builds the named algorithm's factory for an n-node execution.
func NewFactory(algo string, n int, seed int64) (amac.Factory, error) {
	ctor, ok := algorithms[algo]
	if !ok {
		return nil, fmt.Errorf("harness: unknown algorithm %q (have %v)", algo, Algorithms())
	}
	return ctor(n, seed), nil
}

// --- scheduler registry ---

type schedCtor func(fack, seed int64, g *graph.Graph) sim.Scheduler

var schedulers = map[string]schedCtor{
	"sync":     func(fack, _ int64, _ *graph.Graph) sim.Scheduler { return sim.Synchronous{Round: fack} },
	"random":   func(fack, seed int64, _ *graph.Graph) sim.Scheduler { return sim.NewRandom(fack, seed) },
	"maxdelay": func(fack, _ int64, _ *graph.Graph) sim.Scheduler { return sim.MaxDelay{F: fack} },
	"edgeorder": func(_, _ int64, g *graph.Graph) sim.Scheduler {
		maxDeg := 0
		for u := 0; u < g.N(); u++ {
			if d := g.Degree(u); d > maxDeg {
				maxDeg = d
			}
		}
		return &sim.EdgeOrder{MaxDegree: maxDeg}
	},
}

// Schedulers returns the registered scheduler names, sorted.
func Schedulers() []string { return sortedKeys(schedulers) }

// NewScheduler builds the named scheduler. The graph is consulted by
// degree-driven schedulers (edgeorder); fack is ignored by schedulers whose
// bound is structural.
func NewScheduler(name string, fack, seed int64, g *graph.Graph) (sim.Scheduler, error) {
	ctor, ok := schedulers[name]
	if !ok {
		return nil, fmt.Errorf("harness: unknown scheduler %q (have %v)", name, Schedulers())
	}
	if fack <= 0 {
		return nil, fmt.Errorf("harness: Fack=%d, need > 0", fack)
	}
	s := ctor(fack, seed, g)
	if f := s.Fack(); f > sim.MaxFack {
		return nil, fmt.Errorf("harness: scheduler %q declares Fack=%d, above sim.MaxFack=%d", name, f, int64(sim.MaxFack))
	}
	return s, nil
}

// --- input-pattern registry ---

var inputPatterns = map[string]func(n int) []amac.Value{
	"alternating": func(n int) []amac.Value {
		ins := make([]amac.Value, n)
		for i := range ins {
			ins[i] = amac.Value(i % 2)
		}
		return ins
	},
	"zeros": func(n int) []amac.Value { return make([]amac.Value, n) },
	"ones": func(n int) []amac.Value {
		ins := make([]amac.Value, n)
		for i := range ins {
			ins[i] = 1
		}
		return ins
	},
	"half": func(n int) []amac.Value {
		ins := make([]amac.Value, n)
		for i := n / 2; i < n; i++ {
			ins[i] = 1
		}
		return ins
	},
}

// InputPatterns returns the registered input-pattern names, sorted.
func InputPatterns() []string { return sortedKeys(inputPatterns) }

// NewInputs builds the named input assignment for n nodes.
func NewInputs(pattern string, n int) ([]amac.Value, error) {
	if pattern == "" {
		pattern = "alternating"
	}
	mk, ok := inputPatterns[pattern]
	if !ok {
		return nil, fmt.Errorf("harness: unknown input pattern %q (have %v)", pattern, InputPatterns())
	}
	return mk(n), nil
}

// Config assembles the scenario into a validated simulator configuration.
func (s Scenario) Config() (sim.Config, error) {
	cfg, _, err := s.build(nil)
	return cfg, err
}

// buildInfo carries the side facts build learns while assembling a
// configuration: the topology diameter (when cached) and the unreliable
// delivery probability of the scenario's overlay spec (which recording
// needs for Schedule.DeliverP).
type buildInfo struct {
	diameter int
	deliverP float64
}

// build assembles the scenario and returns the configuration plus build
// side facts. With a non-nil cache the graph, its diameter, the
// overlay dual graph and the input assignment are memoized and shared
// (this is the sweep path); with nil everything is built fresh and the
// diameter is NOT computed (returned as 0) — uncached callers that need
// it compute it from the graph, so Config() never pays an all-pairs BFS
// it would discard. The per-seed pieces — scheduler, algorithm factory,
// crash schedule, lossy wrapper — are always built fresh, since they
// carry run state.
func (s Scenario) build(c *caches) (sim.Config, buildInfo, error) {
	var (
		g    *graph.Graph
		info buildInfo
		err  error
	)
	if c != nil {
		g, info.diameter, err = c.topo(s.Topo, s.Seed)
	} else {
		g, err = s.Topo.Build(s.Seed)
	}
	if err != nil {
		return sim.Config{}, info, err
	}
	ins := s.InputValues
	if ins == nil {
		if c != nil {
			ins, err = c.inputValues(s.Inputs, g.N())
		} else {
			ins, err = NewInputs(s.Inputs, g.N())
		}
		if err != nil {
			return sim.Config{}, info, err
		}
	} else if len(ins) != g.N() {
		return sim.Config{}, info, fmt.Errorf("harness: %d input values for %d nodes", len(ins), g.N())
	}
	if err := amac.ValidateBinaryInputs(ins); err != nil {
		return sim.Config{}, info, err
	}
	factory, err := NewFactory(s.Algo, g.N(), s.Seed)
	if err != nil {
		return sim.Config{}, info, err
	}
	scheduler, err := NewScheduler(s.Sched, s.Fack, s.Seed, g)
	if err != nil {
		return sim.Config{}, info, err
	}
	crashes, err := NewCrashes(s.Crashes, g.N(), s.Fack, s.Seed)
	if err != nil {
		return sim.Config{}, info, err
	}
	var unreliable *graph.Graph
	if c != nil {
		unreliable, info.deliverP, err = c.overlay(s.Overlay, s.Topo, g, s.Seed)
	} else {
		unreliable, info.deliverP, err = NewOverlay(s.Overlay, g, s.Seed)
	}
	if err != nil {
		return sim.Config{}, info, err
	}
	if unreliable != nil {
		// The lossy wrapper is what makes overlay edges deliver at all:
		// base schedulers plan only the reliable neighbors.
		scheduler = sim.NewLossy(scheduler, info.deliverP, lossySeed(s.Seed))
	}
	// Every Validate check is already guaranteed by the construction
	// above (and sim.Run re-validates), so the config is returned as is.
	return sim.Config{
		Graph:           g,
		Inputs:          ins,
		Factory:         factory,
		Scheduler:       scheduler,
		Unreliable:      unreliable,
		Crashes:         crashes,
		MaxEvents:       s.MaxEvents,
		Metrics:         s.Metrics,
		StopWhenDecided: true,
		Audit:           true,
	}, info, nil
}

// Run executes the scenario and checks the consensus properties. It builds
// everything fresh and allocates its own engine — the right call for a
// single execution. Sweeps instead run cells of seeds through per-worker
// reusable engines and shared caches (see SweepCellsOpts).
func (s Scenario) Run() (*Outcome, error) {
	cfg, _, err := s.build(nil)
	if err != nil {
		return nil, err
	}
	res := sim.Run(cfg)
	return &Outcome{
		Scenario: s,
		Result:   res,
		Report:   consensus.Check(cfg.Inputs, res),
		N:        cfg.Graph.N(),
		Diameter: cfg.Graph.Diameter(),
		Fack:     cfg.Scheduler.Fack(),
	}, nil
}

// runner executes scenarios for one sweep worker: configurations are
// assembled through the sweep's shared caches and executed on a single
// reusable engine, so across the seeds of a cell the only per-run
// allocations are the scenario's own state (algorithm instances, seeded
// schedulers, the consensus report).
type runner struct {
	caches *caches
	eng    *sim.Engine
}

// run executes one scenario. The returned Outcome's Result is owned by the
// runner's engine and is valid only until the next run call — callers must
// extract what they need (the accumulator does) before running again.
// With fingerprint set, the scheduler is wrapped in a sim.Fingerprinter
// and the run's schedule-coverage digest is returned alongside the
// outcome; without it the wrapper is never constructed and the second
// return is 0 — the sweep hot path pays nothing for the capability.
// A non-nil reg is installed as the run's metrics registry; the engine's
// Reset zeroes it, so after run returns it holds exactly this run's
// values (callers merge before the next run). Nil keeps the instrumented
// paths on disabled handles — that is the configuration the allocation
// pins in BENCH_engine.json measure.
func (r *runner) run(s Scenario, fingerprint bool, reg *metrics.Registry) (*Outcome, uint64, error) {
	cfg, info, err := s.build(r.caches)
	if err != nil {
		return nil, 0, err
	}
	cfg.Metrics = reg
	var fp *sim.Fingerprinter
	if fingerprint {
		fp = sim.NewFingerprinter(cfg.Scheduler, cfg.Crashes)
		cfg.Scheduler = fp
	}
	if r.eng == nil {
		r.eng = sim.NewEngine(cfg)
	} else {
		r.eng.Reset(cfg)
	}
	res := r.eng.Run()
	var sum uint64
	if fp != nil {
		sum = fp.Sum()
		if salt := s.fingerprintSalt(); salt != 0 {
			sum = sim.SaltFingerprint(sum, salt)
		}
	}
	return &Outcome{
		Scenario: s,
		Result:   res,
		Report:   consensus.Check(cfg.Inputs, res),
		N:        cfg.Graph.N(),
		Diameter: info.diameter,
		Fack:     cfg.Scheduler.Fack(),
	}, sum, nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
