package main

import (
	"math/rand"
	"time"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/critpath"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/metrics"
	"github.com/absmac/absmac/internal/sim"
)

// layerSelf is the per-op self time of every layer inside a traced op, in
// seconds, timer cost removed.
type layerSelf struct {
	reset, loop, broadcast                float64 // sim.engine
	plan                                  float64 // sim.sched
	factory, start, onReceive, onAck      float64 // algo
	check, classify                       float64 // consensus
	planCalls, onReceiveCalls, onAckCalls float64
	unattributed                          float64 // share of op time under no layer span
}

// layerTimes divides the aggregate of n traced ops into per-op layer times.
func layerTimes(tr *tracer, sum spanAggs, n float64) layerSelf {
	self := func(c spanClass) float64 { return tr.self(sum, c) / n }
	l := layerSelf{
		reset: self(spReset), loop: self(spRun), broadcast: self(spBroadcast),
		plan:    self(spPlan),
		factory: self(spFactory), start: self(spStart), onReceive: self(spOnReceive), onAck: self(spOnAck),
		check: self(spCheck), classify: self(spClassify),
		planCalls:      float64(sum[spPlan].Calls) / n,
		onReceiveCalls: float64(sum[spOnReceive].Calls) / n,
		onAckCalls:     float64(sum[spOnAck].Calls) / n,
	}
	if sum[spOp].Total > 0 {
		l.unattributed = rawSelf(sum, spOp) * 1e9 / float64(sum[spOp].Total)
	}
	return l
}

func (l layerSelf) engine() float64 { return l.reset + l.loop + l.broadcast }
func (l layerSelf) algo() float64   { return l.factory + l.start + l.onReceive + l.onAck }
func (l layerSelf) total() float64 {
	return l.engine() + l.plan + l.algo() + l.check + l.classify
}
func (l layerSelf) algoShare() float64 { return l.algo() / l.total() }

// emit writes the engine, scheduler, algorithm, consensus and trace
// metrics; events is the op's simulated event count.
func (l layerSelf) emit(pl values, events float64) {
	set := func(name string, v float64) { pl.set(perLayer, name, v) }
	set("sim.engine.reset_self_s", l.reset)
	set("sim.engine.loop_self_s", l.loop)
	set("sim.engine.broadcast_self_s", l.broadcast)
	set("sim.engine.self_ns_per_event", (l.loop+l.broadcast)*1e9/events)
	set("sim.engine.share", l.engine()/l.total())
	set("sim.sched.plan_calls", l.planCalls)
	set("sim.sched.plan_self_s", l.plan)
	if l.planCalls > 0 {
		set("sim.sched.plan_ns_per_call", l.plan*1e9/l.planCalls)
	}
	set("sim.sched.share", l.plan/l.total())
	set("algo.factory_s", l.factory)
	set("algo.start_self_s", l.start)
	set("algo.onreceive_self_s", l.onReceive)
	set("algo.onack_self_s", l.onAck)
	set("algo.onreceive_calls", l.onReceiveCalls)
	set("algo.onack_calls", l.onAckCalls)
	if calls := l.onReceiveCalls + l.onAckCalls; calls > 0 {
		set("algo.self_ns_per_call", (l.onReceive+l.onAck)*1e9/calls)
	}
	set("algo.share", l.algoShare())
	set("consensus.check_s_per_op", l.check)
	set("consensus.classify_s_per_op", l.classify)
	set("trace.unattributed_share", l.unattributed)
}

// setCounts writes an op's MAC-layer counts. A discard is a broadcast
// attempt the MAC layer dropped because one was in flight: wasted work.
func setCounts(pl values, c counters) {
	pl.set(perLayer, "sim.engine.events", float64(c.Events))
	pl.set(perLayer, "sim.engine.deliveries", float64(c.Deliveries))
	pl.set(perLayer, "sim.engine.broadcasts", float64(c.Broadcasts))
	pl.set(perLayer, "sim.engine.acks", float64(c.Acks))
	pl.set(perLayer, "sim.engine.discards", float64(c.Discards))
	if attempts := c.Broadcasts + c.Discards; attempts > 0 {
		pl.set(perLayer, "sim.engine.discard_ratio", float64(c.Discards)/float64(attempts))
	}
}

// registryReads copies the execution-determined registry slots. The
// freelist pair is left out on purpose: it measures slab warm-up, a
// property of the process, not of the execution.
func registryReads(pl values, reg *metrics.Registry) {
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "wpaxos_proposals", "wpaxos_retransmits", "wpaxos_nacks",
			"flood_proposals", "flood_retransmits", "flood_nacks", "det_suspicions":
			pl.set(perLayer, "reg."+s.Name, float64(s.Value))
		case "sim_queue_depth":
			pl.set(perLayer, "reg.sim_queue_depth_high", float64(s.High))
		}
	}
}

// critpathReads extracts the decide-latency critical path and writes its
// simulated attribution.
func critpathReads(pl values, coll *critpath.Collector) {
	t0 := time.Now()
	rep := coll.Extract()
	pl.set(perLayer, "critpath.extract_s", time.Since(t0).Seconds())
	for _, sp := range rep.Spans {
		switch sp.Phase {
		case "election", "proposal", "aggregation", "stall":
			pl.set(perLayer, "critpath."+sp.Phase+"_ticks", float64(sp.Ticks))
		}
	}
}

// liveBytesPerNode measures the heap the n algorithm instances hold after
// a run: the live heap with the engine as the run left it, minus the live
// heap once a two-node configuration has displaced them (Reset keeps the
// engine's own arrays and event slab, so the difference is node state).
func liveBytesPerNode(eng *sim.Engine, n int) (float64, error) {
	tiny, err := harness.Scenario{Algo: "twophase", Topo: harness.Topo{Kind: "clique", N: 2}, Sched: "sync", Fack: 1, Seed: 1}.Config()
	if err != nil {
		return 0, err
	}
	with := liveHeap()
	eng.Reset(tiny)
	without := liveHeap()
	if without > with {
		return 0, nil
	}
	return float64(with-without) / float64(n), nil
}

// detectorProbe drives the public Ω detector directly at n=4096
// membership: a million Learn calls (the first 4095 insert, the rest hit
// the already-known path a converged run takes) and a million Check
// calls on an advancing clock.
func detectorProbe(pl values, a runArgs) {
	const n = 4096
	calls := 1 << 20
	if a.toy {
		calls = 1 << 14
	}
	rng := rand.New(rand.NewSource(a.seed))
	ids := make([]amac.NodeID, calls)
	for i, p := range rng.Perm(n) {
		ids[i] = amac.NodeID(p + 1)
	}
	for i := n; i < calls; i++ {
		ids[i] = amac.NodeID(rng.Intn(n) + 1)
	}
	d := wpaxos.NewDetector(1, n)
	t0 := time.Now()
	for _, id := range ids {
		d.Learn(id)
	}
	pl.set(perLayer, "wpaxos.detector.learn_ns_per_call", float64(time.Since(t0).Nanoseconds())/float64(calls))
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		d.Check(int64(i))
	}
	pl.set(perLayer, "wpaxos.detector.check_ns_per_call", float64(time.Since(t0).Nanoseconds())/float64(calls))
}
