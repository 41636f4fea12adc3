package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/sim"
)

// The tracer records spans from outside the program: the benchmark wraps
// the public seams (amac.Factory / amac.Algorithm, amac.API, sim.Scheduler)
// in the shims below and brackets its own calls into harness, sim,
// consensus and explore. Nothing inside the program is instrumented.
//
// Every workload is one goroutine, so spans nest strictly
// (op ⊃ reset ⊃ factory; op ⊃ run ⊃ handler ⊃ broadcast ⊃ plan) and one
// explicit stack is the whole span context. Hot spans (6 M per op on the
// large decides) are aggregated per class — count, total, child time —
// never stored; coarse spans are also kept one by one, with their parent.

type spanClass int

const (
	spOp spanClass = iota // one traced op: the root every layer span hangs off
	spBuild
	spDiameter
	spConfig
	spReset
	spRun
	spCheck
	spClassify
	spRecord
	spExplore
	spReplay
	spShrink
	spSweep
	// Classes from here on are hot: aggregated only.
	spFactory
	spStart
	spOnReceive
	spOnAck
	spBroadcast
	spPlan
	numSpanClasses
)

var spanNames = [numSpanClasses]string{
	spOp: "op", spBuild: "graph.build", spDiameter: "graph.diameter", spConfig: "harness.config",
	spReset: "sim.engine.reset", spRun: "sim.engine.run", spCheck: "consensus.check",
	spClassify: "consensus.classify", spRecord: "explore.record", spExplore: "explore.search",
	spReplay: "harness.replay", spShrink: "explore.shrink", spSweep: "harness.sweep",
	spFactory: "algo.factory", spStart: "algo.start", spOnReceive: "algo.onreceive",
	spOnAck: "algo.onack", spBroadcast: "sim.engine.broadcast", spPlan: "sim.sched.plan",
}

// spanAgg accumulates one class: calls, summed duration, the part of it
// covered by child spans, and how many direct children there were (the
// calibration charges each child's exit-side cost to its parent).
type spanAgg struct {
	Calls, Total, Child, Kids int64
}

func (a spanAgg) sub(b spanAgg) spanAgg {
	return spanAgg{a.Calls - b.Calls, a.Total - b.Total, a.Child - b.Child, a.Kids - b.Kids}
}

func (a *spanAgg) add(b spanAgg) {
	a.Calls += b.Calls
	a.Total += b.Total
	a.Child += b.Child
	a.Kids += b.Kids
}

type spanAggs [numSpanClasses]spanAgg

func (a spanAggs) sub(b spanAggs) spanAggs {
	for i := range a {
		a[i] = a[i].sub(b[i])
	}
	return a
}

func (a *spanAggs) add(b spanAggs) {
	for i := range a {
		a[i].add(b[i])
	}
}

// coarseSpan is one individually kept span of the trace file.
type coarseSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

type spanFrame struct {
	class       spanClass
	id          int // coarse span id, -1 for hot classes
	start       int64
	child, kids int64
}

type tracer struct {
	epoch  time.Time
	agg    spanAggs
	stack  [16]spanFrame
	depth  int
	coarse []coarseSpan
	// cIn is the calibrated cost a span adds inside its own interval,
	// cOut the cost it adds to its parent's self time; timer_ns is the sum.
	cIn, cOut float64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.calibrate()
	return t
}

func (t *tracer) enter(c spanClass) {
	f := &t.stack[t.depth]
	t.depth++
	f.class, f.id, f.child, f.kids = c, -1, 0, 0
	if c < spFactory {
		f.id = len(t.coarse)
		parent := -1
		for d := t.depth - 2; d >= 0; d-- {
			if t.stack[d].id >= 0 {
				parent = t.stack[d].id
				break
			}
		}
		t.coarse = append(t.coarse, coarseSpan{ID: f.id, Parent: parent, Name: spanNames[c]})
	}
	f.start = int64(time.Since(t.epoch))
}

func (t *tracer) exit() {
	now := int64(time.Since(t.epoch))
	t.depth--
	f := &t.stack[t.depth]
	d := now - f.start
	a := &t.agg[f.class]
	a.Calls++
	a.Total += d
	a.Child += f.child
	a.Kids += f.kids
	if f.id >= 0 {
		s := &t.coarse[f.id]
		s.StartNs, s.EndNs, s.SelfNs = f.start, now, d-f.child
	}
	if t.depth > 0 {
		p := &t.stack[t.depth-1]
		p.child += d
		p.kids++
	}
}

// span brackets fn in one span of class c.
func (t *tracer) span(c spanClass, fn func()) {
	t.enter(c)
	fn()
	t.exit()
}

// calibrate measures what one empty span costs: a parent span around k
// empty children sees k·cIn inside the children and k·cOut in itself.
func (t *tracer) calibrate() {
	const k = 1 << 18
	best := [2]float64{1e18, 1e18}
	for round := 0; round < 5; round++ {
		before := t.agg
		t.enter(spOnAck)
		for i := 0; i < k; i++ {
			t.enter(spPlan)
			t.exit()
		}
		t.exit()
		d := t.agg.sub(before)
		in := float64(d[spPlan].Total) / k
		out := float64(d[spOnAck].Total-d[spOnAck].Child) / k
		if in+out < best[0]+best[1] {
			best = [2]float64{in, out}
		}
	}
	t.cIn, t.cOut = best[0], best[1]
	t.agg = spanAggs{}
	t.coarse = t.coarse[:0]
}

// self returns a class's self time in seconds over the aggregate a, with
// the calibrated cost of its own and its children's timers removed.
func (t *tracer) self(a spanAggs, c spanClass) float64 {
	s := float64(a[c].Total-a[c].Child) - float64(a[c].Calls)*t.cIn - float64(a[c].Kids)*t.cOut
	if s < 0 {
		s = 0
	}
	return s / 1e9
}

// rawSelf is the uncorrected self time in seconds.
func rawSelf(a spanAggs, c spanClass) float64 { return float64(a[c].Total-a[c].Child) / 1e9 }

// --- shims ---

// factory wraps an algorithm factory: node construction is the
// algo.factory span, and every node it returns is a traced node.
func (t *tracer) factory(inner amac.Factory) amac.Factory {
	return func(cfg amac.NodeConfig) amac.Algorithm {
		t.enter(spFactory)
		alg := inner(cfg)
		t.exit()
		return &tracedAlg{inner: alg, t: t}
	}
}

type tracedAlg struct {
	inner amac.Algorithm
	t     *tracer
}

func (a *tracedAlg) Start(api amac.API) {
	a.t.enter(spStart)
	a.inner.Start(&tracedAPI{API: api, t: a.t})
	a.t.exit()
}

func (a *tracedAlg) OnReceive(m amac.Message) {
	a.t.enter(spOnReceive)
	a.inner.OnReceive(m)
	a.t.exit()
}

func (a *tracedAlg) OnAck(m amac.Message) {
	a.t.enter(spOnAck)
	a.inner.OnAck(m)
	a.t.exit()
}

// tracedAPI times Broadcast — the one API call that does engine work
// (plan, validate, push). ID, Now and Decide pass through untimed and stay
// in the handler's self time.
type tracedAPI struct {
	amac.API
	t *tracer
}

func (a *tracedAPI) Broadcast(m amac.Message) bool {
	a.t.enter(spBroadcast)
	ok := a.API.Broadcast(m)
	a.t.exit()
	return ok
}

type tracedSched struct {
	inner sim.Scheduler
	t     *tracer
}

func (s *tracedSched) Fack() int64 { return s.inner.Fack() }

func (s *tracedSched) Plan(b sim.Broadcast, p *sim.Plan) {
	s.t.enter(spPlan)
	s.inner.Plan(b, p)
	s.t.exit()
}

// instrument installs the factory and scheduler shims on a configuration.
func (t *tracer) instrument(cfg *sim.Config) {
	cfg.Factory = t.factory(cfg.Factory)
	cfg.Scheduler = &tracedSched{inner: cfg.Scheduler, t: t}
}

// --- trace file ---

type traceClassJSON struct {
	Name    string `json:"name"`
	Calls   int64  `json:"calls"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

type traceOpJSON struct {
	Op      int              `json:"op"`
	Classes []traceClassJSON `json:"classes"`
}

type traceFile struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	TimerNs  float64       `json:"timer_ns"`
	Env      envBlock      `json:"env"`
	Ops      []traceOpJSON `json:"ops"`
	Spans    []coarseSpan  `json:"spans"`
}

func classesJSON(a spanAggs) []traceClassJSON {
	var out []traceClassJSON
	for c := spanClass(0); c < numSpanClasses; c++ {
		if a[c].Calls == 0 {
			continue
		}
		out = append(out, traceClassJSON{Name: spanNames[c], Calls: a[c].Calls, TotalNs: a[c].Total, SelfNs: a[c].Total - a[c].Child})
	}
	return out
}

// finish reports the tracer's own cost and stores the trace — every coarse
// span, and the hot-class aggregate of each traced op — under a.outDir as
// trace_<workload>.json.
func (t *tracer) finish(a runArgs, o *outcome, ops []spanAggs) error {
	o.PerLayer.set(perLayer, "trace.timer_ns", t.cIn+t.cOut)
	if err := os.MkdirAll(a.outDir, 0o755); err != nil {
		return fmt.Errorf("bench: trace dir: %w", err)
	}
	tf := traceFile{Workload: o.Workload, Seed: a.seed, TimerNs: t.cIn + t.cOut, Env: a.env, Spans: t.coarse}
	for i, a := range ops {
		tf.Ops = append(tf.Ops, traceOpJSON{Op: i, Classes: classesJSON(a)})
	}
	buf, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return fmt.Errorf("bench: encode trace: %w", err)
	}
	path := filepath.Join(a.outDir, "trace_"+o.Workload+".json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write trace: %w", err)
	}
	return nil
}
