package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/critpath"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/metrics"
	"github.com/absmac/absmac/internal/sim"
)

// decideWorkload runs one algorithm to all-decided on one large topology.
// The timed op is Engine.Reset + Run + consensus.Check on a reused engine;
// building the configuration and the collection before it are untimed.
type decideWorkload struct {
	wname, wwhy   string
	algo          string
	topo, toyTopo string
	reps          int // timed ops per ten measured seconds
}

const decideFack = 4

func (w decideWorkload) name() string { return w.wname }
func (w decideWorkload) why() string  { return w.wwhy }

func (w decideWorkload) scenario(a runArgs, i int) (harness.Scenario, error) {
	spec := w.topo
	if a.toy {
		spec = w.toyTopo
	}
	topo, err := harness.ParseTopo(spec)
	if err != nil {
		return harness.Scenario{}, err
	}
	return harness.Scenario{Algo: w.algo, Topo: topo, Sched: "random", Fack: decideFack, Seed: scenarioSeed(a.seed, i)}, nil
}

// counters are the simulated counts that must repeat to the digit.
type counters struct {
	Events, Deliveries, Broadcasts, Acks, Discards int
	MaxDecideTime                                  int64
}

func countersOf(r *sim.Result) counters {
	return counters{r.Events, r.Deliveries, r.Broadcasts, r.Acks, r.Discards, r.MaxDecideTime}
}

// opSample is one executed op.
type opSample struct {
	wall     float64
	alloc    uint64 // bytes allocated during the op
	live     uint64 // bytes reachable after it, engine and nodes included
	c        counters
	diameter int
	ok       bool
	why      string
}

// prepared is an op's untimed part: the built configuration and the
// topology's diameter.
type prepared struct {
	cfg      sim.Config
	diameter int
}

func (w decideWorkload) prepare(a runArgs, i int) (prepared, error) {
	sc, err := w.scenario(a, i)
	if err != nil {
		return prepared{}, err
	}
	cfg, err := sc.Config()
	if err != nil {
		return prepared{}, err
	}
	if a.wrap != nil {
		cfg.Factory = a.wrap(cfg.Factory)
	}
	return prepared{cfg: cfg, diameter: cfg.Graph.Diameter()}, nil
}

// execOp is the span-bracketed core of an op: arm the engine (allocating
// it when *eng is nil — the cold op of a set-up), run, check, classify.
// With a tracer the factory and scheduler shims are installed first.
func execOp(eng **sim.Engine, cfg sim.Config, tr *tracer) (res *sim.Result, v *consensus.Violation, wall float64) {
	if tr != nil {
		tr.instrument(&cfg)
	}
	t0 := time.Now()
	spanned(tr, spOp, func() {
		spanned(tr, spReset, func() {
			if *eng == nil {
				*eng = sim.NewEngine(cfg)
			} else {
				(*eng).Reset(cfg)
			}
		})
		spanned(tr, spRun, func() { res = (*eng).Run() })
		var rep *consensus.Report
		spanned(tr, spCheck, func() { rep = consensus.Check(cfg.Inputs, res) })
		spanned(tr, spClassify, func() { v = consensus.Classify(rep, res) })
	})
	return res, v, time.Since(t0).Seconds()
}

// runOp executes one op after a forced collection, measures what it
// allocated, and judges it.
func runOp(eng **sim.Engine, p prepared, tr *tracer) opSample {
	runtime.GC()
	alloc0 := totalAlloc()
	res, v, wall := execOp(eng, p.cfg, tr)
	s := opSample{wall: wall, alloc: totalAlloc() - alloc0, c: countersOf(res), diameter: p.diameter, ok: true}
	s.live = liveHeap()
	switch {
	case v != nil:
		s.ok, s.why = false, fmt.Sprintf("%s violation: %v", v.Kind, v.Errors)
	case len(res.Violations) > 0:
		s.ok, s.why = false, fmt.Sprintf("substrate violation: %v", res.Violations[0])
	case res.Cutoff:
		s.ok, s.why = false, "event budget exhausted before all nodes decided"
	}
	return s
}

// decideSetup is what a set-up leaves behind: a warm engine and the cold
// op that warmed it, whose counters every warm execution of the same op
// must reproduce.
type decideSetup struct {
	eng  *sim.Engine
	cold opSample
	n    int
}

// setup is what one amacsim invocation pays before a warm engine exists:
// build the topology, inputs and configuration, take the diameter,
// allocate a cold engine and run op i on it.
func (w decideWorkload) setup(a runArgs, i int) (*decideSetup, float64, error) {
	runtime.GC()
	t0 := time.Now()
	p, err := w.prepare(a, i)
	if err != nil {
		return nil, 0, err
	}
	st := &decideSetup{n: p.cfg.Graph.N()}
	st.cold = runOp(&st.eng, p, nil)
	return st, time.Since(t0).Seconds(), nil
}

func (w decideWorkload) run(a runArgs, o *outcome) error {
	if a.trace {
		return w.runTraced(a, o)
	}
	// The k-th set-up runs op k cold, so setup_s is a median over scenario
	// seeds like every other metric of the run.
	var (
		st     *decideSetup
		setups []float64
		colds  []counters
	)
	for moreSetups(a, setups) {
		st = nil // drop the previous engine before the next cold start
		s, secs, err := w.setup(a, len(setups))
		if err != nil {
			return err
		}
		st, setups, colds = s, append(setups, secs), append(colds, s.cold.c)
	}

	reps := scaledReps(w.reps, a.seconds)
	var walls, deliveries, ratios, allocs, lives []float64
	for i := 0; i < reps; i++ {
		p, err := w.prepare(a, i)
		if err != nil {
			return err
		}
		s := runOp(&st.eng, p, nil)
		o.Attempted++
		if !s.ok {
			o.Failed++
			o.problem("op %d: %s", i, s.why)
		}
		if i < len(colds) && s.c != colds[i] {
			o.problem("op %d does not repeat: cold %+v, warm %+v", i, colds[i], s.c)
		}
		walls = append(walls, s.wall)
		deliveries = append(deliveries, float64(s.c.Deliveries))
		ratios = append(ratios, float64(s.c.MaxDecideTime)/float64(int64(s.diameter)*decideFack))
		allocs = append(allocs, float64(s.alloc)/mb)
		lives = append(lives, float64(s.live)/mb)
	}

	o.EndToEnd["wall_s_per_op"] = timing(walls, "s")
	o.EndToEnd.set(endToEnd, "deliveries_per_op", median(deliveries))
	o.EndToEnd.set(endToEnd, "decide_ticks_per_dfack", median(ratios))
	o.EndToEnd.set(endToEnd, "alloc_mb_per_op", median(allocs))
	o.EndToEnd.set(endToEnd, "live_heap_mb", median(lives))
	o.finishEndToEnd(setups)
	return nil
}

// tracedOps is how many traced ops a traced run aggregates.
const tracedOps = 2

func (w decideWorkload) runTraced(a runArgs, o *outcome) error {
	tr := newTracer()
	pl := o.PerLayer

	sc, err := w.scenario(a, 0)
	if err != nil {
		return err
	}
	if err := graphProbe(pl, tr, []harness.CellWork{{Base: sc, Seeds: []int64{sc.Seed}}}); err != nil {
		return err
	}
	tr.span(spConfig, func() { _, err = sc.Config() })
	if err != nil {
		return err
	}
	pl.set(perLayer, "harness.config_s", tr.self(tr.agg, spConfig))

	st, _, err := w.setup(a, 0)
	if err != nil {
		return err
	}
	o.Attempted++
	if !st.cold.ok {
		o.Failed++
		o.problem("cold op: %s", st.cold.why)
	}
	pl.set(perLayer, "sim.engine.cold_run_s", st.cold.wall)

	// One warm untraced op: the base of every overhead ratio.
	op := func(tr *tracer, mutate func(*sim.Config)) (opSample, error) {
		p, err := w.prepare(a, 0)
		if err != nil {
			return opSample{}, err
		}
		if mutate != nil {
			mutate(&p.cfg)
		}
		s := runOp(&st.eng, p, tr)
		o.Attempted++
		if !s.ok {
			o.Failed++
			o.problem("traced-pass op: %s", s.why)
		}
		if s.c != st.cold.c {
			o.problem("counters moved between passes: untraced %+v, now %+v", st.cold.c, s.c)
		}
		return s, nil
	}
	base, err := op(nil, nil)
	if err != nil {
		return err
	}
	pl.set(perLayer, "sim.engine.host_ns_per_event", base.wall*1e9/float64(base.c.Events))
	perNode, err := liveBytesPerNode(st.eng, st.n)
	if err != nil {
		return err
	}
	pl.set(perLayer, "algo.live_bytes_per_node", perNode)

	var ops []spanAggs
	var traced []float64
	for k := 0; k < tracedOps; k++ {
		before := tr.agg
		s, err := op(tr, nil)
		if err != nil {
			return err
		}
		ops = append(ops, tr.agg.sub(before))
		traced = append(traced, s.wall)
	}
	var sum spanAggs
	for _, a := range ops {
		sum.add(a)
	}
	lt := layerTimes(tr, sum, tracedOps)
	lt.emit(pl, float64(base.c.Events))
	pl.set(perLayer, "algo."+w.algo+".share", lt.algoShare())
	setCounts(pl, base.c)
	pl.set(perLayer, "trace.overhead_ratio", median(traced)/base.wall)

	// metrics and critpath: one extra op each, against the same base.
	reg := metrics.New()
	withMetrics, err := op(nil, func(c *sim.Config) { c.Metrics = reg })
	if err != nil {
		return err
	}
	pl.set(perLayer, "metrics.overhead_ratio", withMetrics.wall/base.wall)
	registryReads(pl, reg)

	coll := critpath.NewCollector(critpath.ClassifierFor(w.algo))
	withCritpath, err := op(nil, func(c *sim.Config) { c.Observer = coll.Observer() })
	if err != nil {
		return err
	}
	pl.set(perLayer, "critpath.overhead_ratio", withCritpath.wall/base.wall)
	critpathReads(pl, coll)

	detectorProbe(pl, a)
	return tr.finish(a, o, ops)
}
