// Package harness assembles and runs simulator scenarios by name.
//
// A Scenario names everything one execution needs — algorithm, topology,
// input pattern, scheduler, Fack, seed, crash pattern, overlay family —
// and the package holds the registries that map those names to
// constructors. cmd/amacsim and the examples build on these registries
// instead of hand-rolling their own switch statements, so a new
// algorithm, topology family, scheduler, crash pattern or overlay
// registered here becomes available everywhere at once.
//
// The adversity registries (adversity.go) cover the paper's fault models:
// crash patterns schedule sim.Crash failures — including Theorem 3.2's
// mid-broadcast crash — and overlay families build the unreliable
// dual graph of the Kuhn–Lynch–Newport model variant, with a lossy
// scheduler wrapper delivering over its edges probabilistically.
//
// There is one way to execute a scenario (execute.go). Scenario.build
// assembles a sim.Config through a set of caches (cache.go) and
// executor.execute runs it under an Exec, a request value naming what to
// wrap around the run. The paper puts every nondeterministic choice in the
// message scheduler, so replay and recording are scheduler wrappers,
// stacked in the one legal order:
//
//	the scenario's scheduler, under sim.Lossy when there is an overlay
//	  (Exec.Replay: a sim.Replay in their place, and the schedule's
//	  crashes in place of the configuration's)
//	sim.ScheduleRecorder  (Exec.Record: sees finished plans, so coin
//	                       outcomes and replay fallbacks are captured)
//
// The executor then installs Exec.Observer and Exec.Metrics, runs on its
// engine — allocated by its first execution, Reset by every later one —
// calls consensus.Check and fills the one Outcome, returning the Replay
// and the recorded Schedule beside it. The engine owns the sim.Result, so
// an Outcome's Result lives until its executor's next execution. Anything
// that must see every execution (an invariant observer, a stall report at
// the event cap) is installed there, once.
//
// Every entry point is an adapter of a few lines that fills in the request
// and owns an executor: Scenario.Run and RunRecorded (one execution on a
// private cache: a sweep of one), ReplayRunner (the scenario built once
// into a template and one engine across the explorer's thousands of
// replays), the sweep worker (sweep.go: one executor over the sweep's
// shared caches, running a cell's seeds back to back) and Execute (for
// amacsim's single run, which also prints facts only the configuration
// carries). The method signatures are what bench/ compiles against, which
// is why they exist beside Execute; internal/explore builds its search and
// its minimizer on RunRecorded and ReplayRunner.
//
// sweep.go expands a Grid (the cross product of named axes, the two fault
// axes included) into cell work-units — one per (algo, topo, inputs, sched,
// fack, crashes, overlay) combination, seeds inside — and schedules whole
// cells onto a GOMAXPROCS-wide worker pool, aggregating per-cell
// decision-latency, survivor-latency, fault and message-count
// distributions in streaming accumulators. What depends only on
// (topo, seed) is computed once per sweep, per-seed state once per run.
// See cmd/amacsim's package comment for the sweep grammar.
//
// Sweeps also feed the campaign layer (internal/explore.Campaign): each
// cell SweepCellsOpts returns lists its violating runs in seed order as
// Cell.Flagged, classified once by consensus.Classify (the same judgment
// the explorer applies to perturbed schedules). A campaign's scan is a
// plain sweep, whose hot path BENCH_engine.json pins
// allocation-for-allocation.
package harness

import (
	"cmp"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/baseline/anonflood"
	"github.com/absmac/absmac/internal/baseline/gatherall"
	"github.com/absmac/absmac/internal/baseline/waitall"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/core/twophase"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/ext/benor"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
)

// Scenario names one execution: which algorithm, on which topology, with
// which inputs, under which scheduler. Scenarios are plain values — they
// marshal to JSON and rebuild identical executions, which is what makes
// sweeps reproducible. Key is a scenario's identity with defaults applied.
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
	// Seed feeds the scheduler, the crash/overlay registries, a
	// randomized algorithm (benor) and every topology family not declared
	// seed-free.
	Seed int64 `json:"seed"`
	// Crashes is a registered crash-pattern spec (see NewCrashes).
	// Empty means "none".
	Crashes string `json:"crashes,omitempty"`
	// Overlay is a registered overlay-family spec (see NewOverlay)
	// building the unreliable dual graph. Empty means "none". A non-none
	// overlay also wraps the scheduler in sim.Lossy with the spec's
	// delivery probability, so the unreliable edges carry messages.
	Overlay string `json:"overlay,omitempty"`
	// MaxEvents caps the execution; 0 means sim.DefaultMaxEvents, the one
	// budget. It is the only place a caller sets the cap: sweeps, explore,
	// campaigns and shrink run each scenario under its own MaxEvents.
	MaxEvents int `json:"-"`
}

// Key is a scenario's comparable identity: every serialized axis with its
// default applied (empty Inputs is "alternating", empty Crashes and Overlay
// are "none") — the one rendering behind cell rows, duplicate-cell
// detection, artifact file names and runner reuse. A cell's identity is
// its Key with Seed zeroed; an execution's adds the event cap.
type Key struct {
	Algo             string
	Topo             Topo
	Inputs, Sched    string
	Fack, Seed       int64
	Crashes, Overlay string
}

// Key returns the scenario's identity.
func (s Scenario) Key() Key {
	return Key{Algo: s.Algo, Topo: s.Topo, Inputs: cmp.Or(s.Inputs, "alternating"), Sched: s.Sched,
		Fack: s.Fack, Seed: s.Seed, Crashes: cmp.Or(s.Crashes, "none"), Overlay: cmp.Or(s.Overlay, "none")}
}

// Outcome is the result of one execution: the raw simulator result, the
// consensus-property report and the built topology's shape.
type Outcome struct {
	Scenario Scenario
	// Result is owned by the engine that ran the execution: a reused one
	// (ReplayRunner, sweep workers) overwrites it on its next run.
	Result *sim.Result
	Report *consensus.Report
	// N and Diameter describe the topology the run was built on (they
	// vary with the seed for the seeded families).
	N, Diameter int
	// Fack is the delivery bound the scheduler actually declared, which
	// differs from Scenario.Fack for schedulers with a structural bound
	// (edgeorder declares MaxDegree+1 and ignores the requested value).
	Fack int64
}

// Violation classifies the outcome (see consensus.Classify), or nil when
// the run was clean. Sweep workers use it to flag violating runs for the
// campaign layer; internal/explore uses the same classification to judge
// perturbed and minimized schedules, so a run flagged here is exactly a
// run the explorer would report.
func (o *Outcome) Violation() *consensus.Violation {
	return consensus.Classify(o.Report, o.Result)
}

// --- algorithm registry ---

type algoCtor struct {
	// mk builds the factory; rounds is the row's @R argument, -1 without
	// one.
	mk  func(n int, seed, rounds int64) amac.Factory
	arg argUse
}

// budgeted is the row of a defeated baseline, whose round budget is @R or
// else the one of the universal diameter bound n-1: correct where the
// paper says it is (crash-free reliable runs whose scheduler lets
// information traverse within the budget), defeated elsewhere.
func budgeted(mk func(rounds int) amac.Factory, forDiameter func(int) int) algoCtor {
	return algoCtor{arg: optArg, mk: func(n int, _, rounds int64) amac.Factory {
		if rounds < 0 {
			return mk(forDiameter(n - 1))
		}
		return mk(int(rounds))
	}}
}

var algorithms = map[string]algoCtor{
	"twophase":   {mk: func(int, int64, int64) amac.Factory { return twophase.Factory }},
	"wpaxos":     {mk: func(n int, _, _ int64) amac.Factory { return wpaxos.NewFactory(wpaxos.Config{N: n}) }},
	"floodpaxos": {mk: func(n int, _, _ int64) amac.Factory { return wpaxos.NewFactory(wpaxos.Config{N: n, Flood: true}) }},
	"gatherall":  {mk: func(n int, _, _ int64) amac.Factory { return gatherall.NewFactory(n) }},
	"benor": {mk: func(n int, seed, _ int64) amac.Factory {
		return benor.NewFactory(benor.Config{N: n, F: (n - 1) / 2, Seed: seed})
	}},
	"anonflood": budgeted(anonflood.NewFactory, anonflood.RoundsForDiameter),
	"waitall":   budgeted(waitall.NewFactory, waitall.RoundsForDiameter),
}

func (a algoCtor) takes() argUse { return a.arg }

// Algorithms returns the registered algorithm names, sorted.
func Algorithms() []string { return sortedKeys(algorithms) }

// NewFactory builds the algorithm spec's factory for an n-node execution.
func NewFactory(algo string, n int, seed int64) (amac.Factory, error) {
	ctor, rounds, err := resolve(algorithms, "algorithm", algo)
	if err != nil {
		return nil, err
	}
	if rounds == 0 {
		return nil, fmt.Errorf("harness: algorithm %q: the round budget must be at least 1", algo)
	}
	return ctor.mk(n, seed, rounds), nil
}

// --- scheduler registry ---

type schedCtor struct {
	// mk builds the scheduler; at is the row's @T argument.
	mk  func(at, fack, seed int64, g *graph.Graph) (sim.Scheduler, error)
	arg argUse
}

func (c schedCtor) takes() argUse { return c.arg }

var schedulers = map[string]schedCtor{
	"sync": {mk: func(_, fack, _ int64, _ *graph.Graph) (sim.Scheduler, error) {
		return sim.Synchronous{Round: fack}, nil
	}},
	"random": {mk: func(_, fack, seed int64, _ *graph.Graph) (sim.Scheduler, error) {
		return sim.NewRandom(fack, seed), nil
	}},
	"maxdelay": {mk: func(_, fack, _ int64, _ *graph.Graph) (sim.Scheduler, error) { return sim.MaxDelay{F: fack}, nil }},
	"edgeorder": {mk: func(_, _, _ int64, g *graph.Graph) (sim.Scheduler, error) {
		maxDeg := 0
		for u := 0; u < g.N(); u++ {
			if d := g.Degree(u); d > maxDeg {
				maxDeg = d
			}
		}
		return &sim.EdgeOrder{MaxDegree: maxDeg}, nil
	}},
	// gate@T is the semi-synchronous scheduler of Sections 3.2 and 3.3:
	// sync, with the graph's hub (q in Figure 1's network A, the hub of
	// K_D) silent until T.
	"gate": {arg: needArg, mk: func(until, fack, _ int64, g *graph.Graph) (sim.Scheduler, error) {
		hub, err := hubOf(g)
		if err != nil {
			return nil, err
		}
		if until > sim.MaxFack-fack {
			return nil, fmt.Errorf("harness: gate@%d at Fack %d ends past sim.MaxFack=%d", until, fack, int64(sim.MaxFack))
		}
		return sim.Gate{Base: sim.Synchronous{Round: fack}, Gated: map[int]bool{hub: true}, Until: until}, nil
	}},
}

// hubOf returns g's unique highest-degree node: the node gate@T silences
// and cut removes.
func hubOf(g *graph.Graph) (int, error) {
	hub, unique := 0, true
	for u := 1; u < g.N(); u++ {
		switch d := g.Degree(u) - g.Degree(hub); {
		case d > 0:
			hub, unique = u, true
		case d == 0:
			unique = false
		}
	}
	if !unique {
		return 0, fmt.Errorf("harness: the graph has no unique highest-degree node to silence or cut")
	}
	return hub, nil
}

// Schedulers returns the registered scheduler names, sorted.
func Schedulers() []string { return sortedKeys(schedulers) }

// NewScheduler builds the scheduler spec. The graph is consulted by
// degree-driven schedulers (edgeorder, gate); fack is ignored by
// schedulers whose bound is structural.
func NewScheduler(name string, fack, seed int64, g *graph.Graph) (sim.Scheduler, error) {
	ctor, at, err := resolve(schedulers, "scheduler", name)
	if err != nil {
		return nil, err
	}
	if fack <= 0 {
		return nil, fmt.Errorf("harness: Fack=%d, need > 0", fack)
	}
	s, err := ctor.mk(at, fack, seed, g)
	if err != nil {
		return nil, err
	}
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

// graphInputs are the input patterns that read the graph rather than n
// alone. cut is the lower-bound constructions' split: ones on the second
// component, by lowest index, that removing the hub (hubOf) leaves —
// gadget copy 1 in Figure 1's network A, L2 in K_D.
var graphInputs = map[string]func(g *graph.Graph) ([]amac.Value, error){
	"cut": func(g *graph.Graph) ([]amac.Value, error) {
		hub, err := hubOf(g)
		if err != nil {
			return nil, err
		}
		// comp[u] is 1 + the index of u's component; the hub is in none.
		comp := make([]int, g.N())
		comp[hub] = -1
		ins := make([]amac.Value, g.N())
		found := 0
		for root := range comp {
			if comp[root] != 0 {
				continue
			}
			found++
			comp[root] = found
			for queue := []int{root}; len(queue) > 0; queue = queue[1:] {
				if found == 2 {
					ins[queue[0]] = 1
				}
				for _, v := range g.Neighbors(queue[0]) {
					if comp[v] == 0 {
						comp[v] = found
						queue = append(queue, v)
					}
				}
			}
		}
		if found < 2 {
			return nil, fmt.Errorf("harness: removing the hub leaves one component: nothing to cut")
		}
		return ins, nil
	},
}

// InputPatterns returns the registered input-pattern names, sorted.
func InputPatterns() []string { return append(sortedKeys(inputPatterns), sortedKeys(graphInputs)...) }

// NewInputs builds the named input assignment for n nodes; a pattern that
// reads the graph (cut) is built from a Scenario.
func NewInputs(pattern string, n int) ([]amac.Value, error) {
	if pattern == "" {
		pattern = "alternating"
	}
	mk, ok := inputPatterns[pattern]
	switch {
	case graphInputs[pattern] != nil:
		return nil, fmt.Errorf("harness: input pattern %q reads the graph; name it in a Scenario", pattern)
	case !ok:
		return nil, fmt.Errorf("harness: unknown input pattern %q (have %v)", pattern, InputPatterns())
	}
	return mk(n), nil
}

// Config assembles the scenario into a validated simulator configuration.
func (s Scenario) Config() (sim.Config, error) {
	cfg, _, err := s.build(newCaches())
	return cfg, err
}

// build assembles the scenario through the caches c: the graph, the
// overlay dual graph and the input assignment are memoized there, while
// the per-seed pieces (scheduler, algorithm factory, crash schedule, lossy
// wrapper) carry run state and are always built fresh. The returned entry
// answers the topology's diameter on first demand, so a caller that never
// asks (Config) never pays the all-pairs BFS.
func (s Scenario) build(c *caches) (sim.Config, *topoEntry, error) {
	if s.MaxEvents < 0 {
		return sim.Config{}, nil, fmt.Errorf("harness: event cap %d is negative (0 means the default)", s.MaxEvents)
	}
	te, err := c.topo(s.Topo, s.Seed)
	if err != nil {
		return sim.Config{}, nil, err
	}
	g := te.g
	ins, err := c.inputValues(s.Inputs, g)
	if err != nil {
		return sim.Config{}, nil, err
	}
	factory, err := NewFactory(s.Algo, g.N(), s.Seed)
	if err != nil {
		return sim.Config{}, nil, err
	}
	scheduler, err := NewScheduler(s.Sched, s.Fack, s.Seed, g)
	if err != nil {
		return sim.Config{}, nil, err
	}
	crashes, err := NewCrashes(s.Crashes, g.N(), s.Fack, s.Seed)
	if err != nil {
		return sim.Config{}, nil, err
	}
	unreliable, deliverP, err := c.overlay(s.Overlay, s.Topo, g, s.Seed)
	if err != nil {
		return sim.Config{}, nil, err
	}
	if unreliable != nil {
		// The lossy wrapper is what makes overlay edges deliver at all:
		// base schedulers plan only the reliable neighbors.
		scheduler = sim.NewLossy(scheduler, deliverP, lossySeed(s.Seed))
	}
	// Every Validate check is already guaranteed by the construction
	// above (and the engine re-validates), so the config is returned as is.
	return sim.Config{
		Graph:      g,
		Inputs:     ins,
		Factory:    factory,
		Scheduler:  scheduler,
		Unreliable: unreliable,
		Crashes:    crashes,
		MaxEvents:  s.MaxEvents,
	}, te, nil
}

// Seed streams. The scheduler consumes the scenario seed as is; every
// other consumer in this package draws its own stream through one affine
// map here, each with a multiplier of its own (TestSeedStreamsDistinct),
// or two "independent" streams would walk the same sequence. ben-or's
// per-node seed*7368787 + ID*1299721 + 31 (internal/ext/benor) is the one
// map kept elsewhere. A new consumer gets a line here and a fresh
// multiplier.
func overlaySeed(seed int64) int64      { return seed*1000003 + 17 }    // overlay construction
func lossySeed(seed int64) int64        { return seed*6700417 + 257 }   // the lossy wrapper's delivery coins
func minorityRandSeed(seed int64) int64 { return seed*2654435761 + 97 } // minorityrand's victims and times
func expanderSeed(seed int64) int64     { return seed*9176741 + 389 }   // expander topologies
func podsSeed(seed int64) int64         { return seed*15485863 + 577 }  // pods topologies
func fallbackSeed(seed int64) int64     { return seed*48271 + 11 }      // a replay's post-divergence planner

// argUse is how a registry row takes the @N argument of the name[@N]
// grammar that the algorithm, scheduler and crash registries share.
type argUse uint8

const (
	noArg   argUse = iota
	optArg         // name or name@N
	needArg        // name@N only
)

// resolve is the one parse of the name[@N] grammar: it looks spec up in
// reg (what names the registry in errors) and returns the row and N, a
// non-negative integer, or -1 when spec has no @.
func resolve[R interface{ takes() argUse }](reg map[string]R, what, spec string) (R, int64, error) {
	name, text, has := strings.Cut(spec, "@")
	row, ok := reg[name]
	switch {
	case !ok:
		return row, 0, fmt.Errorf("harness: unknown %s %q (have %v; grammar name[@N])", what, spec, sortedKeys(reg))
	case has && row.takes() == noArg:
		return row, 0, fmt.Errorf("harness: %s %q takes no @ argument (got %q)", what, name, spec)
	case !has && row.takes() == needArg:
		return row, 0, fmt.Errorf("harness: %s %q needs an @ argument (e.g. %q)", what, name, name+"@0")
	case !has:
		return row, -1, nil
	}
	v, err := strconv.ParseInt(text, 10, 64)
	if err != nil || v < 0 {
		return row, 0, fmt.Errorf("harness: bad argument in %s %q: want a non-negative integer", what, spec)
	}
	return row, v, nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
