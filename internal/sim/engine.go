package sim

import (
	"fmt"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/metrics"
)

// Engine executes configurations on a reusable arena: Reset re-arms the
// same engine for a new configuration, keeping the node-state arrays, the
// Result slices, the delivery-plan buffer and the event queue's per-tick
// arrays from the previous run. It also hands each slot's algorithm from
// the previous run to the factory (amac.NodeConfig.Prev), and every
// registered factory re-arms its own nodes in place, tables included. A
// sweep worker that runs the seeds of one cell back to back on one Engine
// pays the engine's and the nodes' allocation cost once per cell instead
// of once per seed.
//
// Node runtime state is stored structure-of-arrays: one flat slice per
// field (algorithm, id, in-flight broadcast, crash time) instead of one
// []struct with pointer-y interiors. Reset then re-arms a field with one
// clear()/copy pass, the per-event cache footprint is a few dense arrays
// instead of strided struct loads, and decision state lives directly in
// the Result slices (Decided/Decision/DecideTime/Crashed) rather than
// being mirrored per node. The per-node amac.API values are pre-boxed
// into the apis slice once per Reset, so starting n nodes performs no
// interface-conversion allocation — at n=10^4 that was the last O(n)
// allocation on the run path.
//
// Every run ends on the event that makes the last owed decision (owes; the
// package comment's "Stop rule"), at quiescence, or at its event budget.
//
// The Result returned by Run is owned by the engine and valid only until
// the next Reset; callers that retain results across runs must copy them.
// The one-shot Run function keeps its allocate-per-call semantics.
type Engine struct {
	cfg Config

	// Structure-of-arrays node state, all indexed by node.
	algs     []amac.Algorithm
	apis     []api
	ids      []amac.NodeID
	inflight []bool // a broadcast is awaiting its ack
	// inMsg is each node's in-flight message, set at broadcast and cleared
	// at the ack. It is also the payload of every queued delivery from that
	// node: a node has one broadcast outstanding and validatePlan puts
	// every delivery of it at or before its ack, so the queue stores none.
	inMsg   []amac.Message
	bseq    []int // next broadcast sequence number
	crashAt []int64

	q      eventQueue
	fack   int64 // the scheduler's declared horizon, read once per Reset
	now    int64
	res    *Result
	maxEvt int
	// plan is the reusable delivery-plan buffer handed to the scheduler.
	// Invariant between broadcasts: every slot in [0, cap) holds
	// NoDelivery — the push loops restore exactly the slots the scheduler
	// filled as they read them, so a broadcast never pays a pre-zero pass
	// over slots nobody wrote (the queue's bucket arrays play the same role
	// for events; together they keep the hot path allocation-free).
	plan Plan

	// O(1) stop bookkeeping: undecided counts the nodes that owe a
	// decision (owes) and have not yet made it. The run stops on the event
	// that brings it to 0.
	undecided int

	// Hot-path metric handles, re-registered at every Reset. With
	// Config.Metrics nil these are zero handles and every mutation is one
	// predictable nil-check branch — the zero-cost-when-off contract.
	mEvents    metrics.Counter // processed queue events
	mDeliver   metrics.Counter // deliveries handed to OnReceive
	mDrops     metrics.Counter // deliveries/acks lost to crash cutoffs
	mDiscards  metrics.Counter // broadcasts attempted while one in flight
	mQueueHigh metrics.Gauge   // event-queue depth (high-water tracked)

	// par runs large buckets on every core (phase.go); it is made by
	// the engine's first phase. phasing is set while a pass runs: handlers
	// log their engine half.
	par     *phases
	phasing bool
	// forcePhases, set by tests, runs every nonempty array as a phase of
	// that many workers and admits any scheduler.
	forcePhases int
}

// api implements amac.API for one node. Engine.Reset pre-boxes one per
// node in e.apis; the *api pointer converts to the interface without
// allocating.
type api struct {
	e    *Engine
	node int
}

func (a *api) ID() amac.NodeID { return a.e.ids[a.node] }

func (a *api) Now() int64 { return a.e.now }

func (a *api) Broadcast(m amac.Message) bool {
	return a.e.broadcast(a.node, m)
}

func (a *api) Decide(v amac.Value) {
	a.e.decide(a.node, v)
}

var _ amac.API = (*api)(nil)

// NewEngine returns an engine armed with cfg, ready to Run. Like Run, it
// panics on configuration errors (use Config.Validate to check first).
func NewEngine(cfg Config) *Engine {
	e := &Engine{}
	e.Reset(cfg)
	return e
}

// Reset re-arms the engine for a new configuration, reusing every buffer
// the previous run left behind. No state leaks across runs: node states
// (crash flags, decisions, in-flight broadcasts), the Result, the clock,
// and the queue are all reinitialized; events still queued from a run
// stopped early (by the stop rule or MaxEvents) are dropped, and with them
// the in-flight messages they would have delivered. Every node array and
// Result slice is re-armed by one path, fit, whatever the new node count.
// Each slot's algorithm goes back to the factory as amac.NodeConfig.Prev;
// a factory that re-arms it leaves none of the previous run in it (the
// harness's TestRecycledNodesMatchFresh holds every registered algorithm
// to a fresh engine). It panics on configuration errors, exactly as Run
// does.
func (e *Engine) Reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	// Empty the queue and re-arm the calendar ring for the new scheduler's
	// horizon.
	e.fack = cfg.Scheduler.Fack()
	e.q.init(e.fack)
	e.cfg = cfg
	e.now = 0
	n := cfg.Graph.N()
	e.maxEvt = cfg.MaxEvents
	if e.maxEvt == 0 {
		e.maxEvt = DefaultMaxEvents
	}

	// fit keeps each array's storage when it can hold n nodes and copies
	// it into a larger one when it cannot, and zeroes the slots past n, so
	// a shrink pins nothing of the previous run. algs keeps its first n
	// slots for the factory (amac.NodeConfig.Prev), the loop below
	// overwrites apis and ids, and the rest are cleared here.
	e.algs = fit(e.algs, n)
	e.apis = fit(e.apis, n)
	e.ids = fit(e.ids, n)
	e.inflight = fit(e.inflight, n)
	e.inMsg = fit(e.inMsg, n)
	e.bseq = fit(e.bseq, n)
	e.crashAt = fit(e.crashAt, n)
	clear(e.inflight)
	clear(e.inMsg)
	clear(e.bseq)
	for i := range e.crashAt {
		e.crashAt[i] = -1
	}
	if e.res == nil {
		e.res = new(Result)
	}
	r := e.res
	*r = Result{
		Decided:       fit(r.Decided, n),
		Decision:      fit(r.Decision, n),
		DecideTime:    fit(r.DecideTime, n),
		Crashed:       fit(r.Crashed, n),
		MaxDecideTime: -1,
	}
	clear(r.Decided)
	clear(r.Decision)
	clear(r.DecideTime)
	clear(r.Crashed)

	// Metrics: zero the registry's values for the new run and (re-)register
	// the engine's slots. Registration dedups by name, so after the first
	// Reset of a reused engine this is a handful of map hits; with a nil
	// registry every call returns a disabled zero handle.
	m := cfg.Metrics
	m.Reset()
	e.mEvents = m.Counter("sim_events")
	e.mDeliver = m.Counter("sim_deliveries")
	e.mDrops = m.Counter("sim_crash_drops")
	e.mDiscards = m.Counter("sim_discards")
	e.mQueueHigh = m.Gauge("sim_queue_depth")

	for i := 0; i < n; i++ {
		id := amac.NodeID(i + 1)
		if cfg.IDs != nil {
			id = cfg.IDs[i]
		}
		// Handlers run serially and co-timed deliveries precede acks, so
		// every receiver is done with a message when its sender is acked.
		// The slot's node from the previous run goes back to the factory,
		// which may re-arm it instead of building one.
		alg := cfg.Factory(amac.NodeConfig{ID: id, Input: cfg.Inputs[i], Metrics: cfg.Metrics, Prev: e.algs[i]})
		if alg == nil {
			panic(fmt.Sprintf("sim: factory returned nil algorithm for node %d", i))
		}
		e.ids[i] = id
		e.algs[i] = alg
		e.apis[i] = api{e: e, node: i}
	}
	for _, c := range cfg.Crashes {
		if at := e.crashAt[c.Node]; at < 0 || c.At < at {
			e.crashAt[c.Node] = c.At
		}
	}

	// Arm the O(1) stop counter.
	e.undecided = 0
	for i := range n {
		if e.owes(i) {
			e.undecided++
		}
	}

	// Re-assert the plan-buffer invariant (all slots NoDelivery): the push
	// loops maintain it run to run, but a run aborted mid-broadcast — a
	// recovered scheduler-contract panic — may have left written slots.
	e.plan.Recv = e.plan.Recv[:cap(e.plan.Recv)]
	for i := range e.plan.Recv {
		e.plan.Recv[i] = NoDelivery
	}
}

// fit returns s with length n and nothing held past n: s itself when it
// can hold n, its slots past n zeroed, or else a new slice that starts
// with a copy of s.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		t := make([]T, n)
		copy(t, s)
		return t
	}
	clear(s[n:cap(s)])
	return s[:n]
}

func (e *Engine) observe(ev Event) {
	if e.cfg.Observer != nil {
		e.cfg.Observer(ev)
	}
}

// crashedBy reports whether node i has halted before time t. A crash at
// time T takes effect strictly after T: events at exactly T still occur
// (the paper lets the scheduler crash a node "in the middle of a
// broadcast", i.e. between events, so the boundary convention is free; we
// pick the one that maximizes what a crash can be observed to permit).
func (e *Engine) crashedBy(i int, t int64) bool {
	at := e.crashAt[i]
	return at >= 0 && at < t
}

func (e *Engine) broadcast(u int, m amac.Message) bool {
	if m == nil {
		panic(fmt.Sprintf("sim: node %d broadcast a nil message", u))
	}
	if e.inflight[u] {
		if e.phasing {
			e.par.owner(u).discards++
			return false
		}
		e.res.Discards++
		e.mDiscards.Inc()
		e.observe(Event{Kind: EventDiscard, Time: e.now, Node: u, Message: m})
		return false
	}
	seq := e.bseq[u]
	e.inflight[u] = true
	e.inMsg[u] = m
	e.bseq[u]++
	if e.phasing {
		e.par.record(u, phaseOp{seq: seq, msg: m})
		return true
	}
	e.send(u, seq, m)
	return true
}

// send is the engine half of node u's broadcast seq of m: the audit, the
// plan, its validation, the count and the queue pushes. A broadcast runs it
// at once; in a bucket phase the replay runs it, in event order.
func (e *Engine) send(u, seq int, m amac.Message) {
	if err := amac.AuditIDCount(m); err != nil {
		e.res.Violations = append(e.res.Violations, Violation{Time: e.now, Node: u, Desc: err.Error()})
	}
	nbrs := e.cfg.Graph.Neighbors(u)
	b := Broadcast{Sender: u, Seq: seq, Neighbors: nbrs, Now: e.now, Message: m}
	if e.cfg.Unreliable != nil {
		b.Unreliable = e.cfg.Unreliable.Neighbors(u)
	}

	// Size the reusable plan buffer: one slot per recipient. Every slot
	// already holds NoDelivery — the buffer invariant — so schedulers only
	// have to fill what they deliver and no per-broadcast zeroing pass
	// runs; the push loops below restore the slots they consume.
	need := len(nbrs) + len(b.Unreliable)
	if cap(e.plan.Recv) < need {
		e.plan.Recv = make([]int64, need)
		for i := range e.plan.Recv {
			e.plan.Recv[i] = NoDelivery
		}
	} else {
		e.plan.Recv = e.plan.Recv[:need]
	}
	e.plan.Ack = 0
	e.cfg.Scheduler.Plan(b, &e.plan)
	e.validatePlan(b, &e.plan)

	e.res.Broadcasts++
	e.observe(Event{Kind: EventBroadcast, Time: e.now, Node: u, Message: m})

	// Push deliveries in deterministic (reliable-then-unreliable,
	// index-ordered) order: queue ties break by insertion order. Each
	// consumed slot is restored to NoDelivery in the same pass — exactly
	// the slots the scheduler wrote, re-establishing the buffer invariant
	// without a separate sweep (reliable slots are always written;
	// unreliable slots only when the scheduler delivered).
	for i, v := range nbrs {
		at := e.plan.Recv[i]
		e.plan.Recv[i] = NoDelivery
		e.q.pushDelivery(at, int32(v), int32(u))
	}
	for i, v := range b.Unreliable {
		if at := e.plan.Recv[len(nbrs)+i]; at != NoDelivery {
			e.plan.Recv[len(nbrs)+i] = NoDelivery
			e.q.pushDelivery(at, int32(v), int32(u))
		}
	}
	e.q.pushAck(e.plan.Ack, int32(u), int32(b.Seq))
	// The queue only grows inside a broadcast, so its depth after the ack
	// is the broadcast's high-water mark.
	e.mQueueHigh.Set(int64(e.q.len()))
}

// validatePlan checks p against the model contract in one pass: every
// reliable slot and every delivered unreliable slot in (Now, Ack], and Now
// < Ack <= Now+Fack. Only a plan that fails takes planError's slot-by-slot
// pass, which names the first broken rule.
func (e *Engine) validatePlan(b Broadcast, p *Plan) {
	nr := len(b.Neighbors)
	ok := len(p.Recv) == nr+len(b.Unreliable) && b.Now < p.Ack && p.Ack <= b.Now+e.fack
	if ok && nr > 0 {
		// NoDelivery is below every Now, so a missed reliable slot fails
		// the min test.
		lo, hi := p.Recv[0], p.Recv[0]
		for _, t := range p.Recv[1:nr] {
			lo, hi = min(lo, t), max(hi, t)
		}
		ok = lo > b.Now && hi <= p.Ack
	}
	if ok {
		for _, t := range p.Recv[nr:] {
			if t != NoDelivery && (t <= b.Now || t > p.Ack) {
				ok = false
				break
			}
		}
	}
	if !ok {
		e.planError(b, p)
	}
}

// planError panics with the first contract rule p breaks.
func (e *Engine) planError(b Broadcast, p *Plan) {
	deadline := b.Now + e.fack
	checkTiming := func(v int, t int64) {
		if t <= b.Now {
			panic(fmt.Sprintf("sim: scheduler delivers to %d at t=%d, not after broadcast at t=%d", v, t, b.Now))
		}
		if t > deadline {
			panic(fmt.Sprintf("sim: scheduler delivers to %d at t=%d, past Fack deadline %d", v, t, deadline))
		}
		if t > p.Ack {
			panic(fmt.Sprintf("sim: scheduler delivers to %d at t=%d, after the ack at t=%d", v, t, p.Ack))
		}
	}
	if want := len(b.Neighbors) + len(b.Unreliable); len(p.Recv) != want {
		panic(fmt.Sprintf("sim: scheduler plan has %d slots for %d recipients of sender %d (plans are positional; do not resize Recv)", len(p.Recv), want, b.Sender))
	}
	for i, v := range b.Neighbors {
		t := p.Recv[i]
		if t == NoDelivery {
			panic(fmt.Sprintf("sim: scheduler plan misses reliable neighbor %d of sender %d", v, b.Sender))
		}
		checkTiming(v, t)
	}
	for i, v := range b.Unreliable {
		if t := p.Recv[len(b.Neighbors)+i]; t != NoDelivery {
			checkTiming(v, t)
		}
	}
	if p.Ack > deadline {
		panic(fmt.Sprintf("sim: scheduler acks at t=%d, past Fack deadline %d", p.Ack, deadline))
	}
	panic(fmt.Sprintf("sim: scheduler acks at t=%d, not after broadcast at t=%d", p.Ack, b.Now))
}

func (e *Engine) decide(u int, v amac.Value) {
	if e.res.Decided[u] {
		if e.res.Decision[u] != v {
			desc := fmt.Sprintf("second decide(%d) after decide(%d): decisions are irrevocable", v, e.res.Decision[u])
			if e.phasing {
				e.par.record(u, phaseOp{desc: desc})
				return
			}
			e.res.Violations = append(e.res.Violations, Violation{Time: e.now, Node: u, Desc: desc})
		}
		return
	}
	e.res.Decided[u] = true
	e.res.Decision[u] = v
	e.res.DecideTime[u] = e.now
	if e.phasing {
		e.par.decided(u, e.owes(u))
		return
	}
	if e.owes(u) {
		e.undecided--
	}
	if e.now > e.res.MaxDecideTime {
		e.res.MaxDecideTime = e.now
	}
	e.observe(Event{Kind: EventDecide, Time: e.now, Node: u, Value: v})
}

// owes reports whether node i owes a decision: the run does not stop
// before it has decided. A node with a scheduled crash owes none — Run
// marks it crashed, so no verdict waits on it. This is the one stop rule:
// Reset's counter, decide and the phases' passes read it, and the test
// oracle checks every run's stop against it from outside.
func (e *Engine) owes(i int) bool {
	return e.crashAt[i] < 0
}

// Run executes the engine's current configuration to completion and returns
// the result. The result is owned by the engine: it stays valid until the
// next Reset. Run must not be called twice without a Reset in between.
func (e *Engine) Run() *Result {
	// Start every node at time 0 in index order. A node scheduled to
	// crash at time 0 never starts.
	for i := range e.algs {
		if e.crashAt[i] == 0 {
			e.markCrashed(i)
			continue
		}
		e.algs[i].Start(&e.apis[i])
	}

	e.drain()

	if e.q.len() == 0 {
		e.res.Quiescent = true
	}
	// Mark scheduled crashes that were never reached by an event so the
	// result reflects the configured fault pattern.
	for i := range e.crashAt {
		if e.crashAt[i] >= 0 {
			e.markCrashed(i)
		}
	}
	return e.res
}

// drain processes the queue one calendar bucket per clock step until it
// empties or a stop rule fires. The clock and Result.Time move once per
// bucket; the bucket's delivery array and then its ack array are read in
// place, front to back, or, when phaseWidth admits the bucket, run as
// parallel phases, one per array (phase.go). No handler pushes into the
// bucket being drained — validatePlan puts every delivery and ack strictly
// after the broadcast's Now — so the arrays cannot grow under the loop. A
// drained bucket is reset once; a run that stops inside a bucket leaves it
// marked, and the next Reset clears it (eventQueue.init).
func (e *Engine) drain() {
	draining.Add(1)
	defer draining.Add(-1)
	q := &e.q
	for q.count > 0 {
		// Checked before the clock moves too, so a cutoff between buckets
		// leaves Result.Time at the last processed event.
		if e.cutoff() {
			return
		}
		t := q.nextBucketTime()
		q.cur = t
		e.now = t
		e.res.Time = t
		b := &q.buckets[t&q.mask]
		if w := e.phaseWidth(len(b.dels) + len(b.acks)); w > 1 {
			if len(b.dels) > 0 && e.phase(w, b.dels, nil) {
				return
			}
			if len(b.acks) > 0 && e.phase(w, nil, b.acks) {
				return
			}
		} else {
			for _, d := range b.dels {
				if e.cutoff() {
					return
				}
				e.admit()
				if e.deliver(int(d.node), int(d.peer)) {
					e.res.Deliveries++
					if e.stopped() {
						return
					}
				}
			}
			for _, a := range b.acks {
				if e.cutoff() {
					return
				}
				e.admit()
				if e.ack(int(a.node), a.bseq) {
					e.res.Acks++
					if e.stopped() {
						return
					}
				}
			}
		}
		q.drained(t)
	}
}

// cutoff reports, and records in the Result, that the run has spent its
// event budget.
func (e *Engine) cutoff() bool {
	if e.res.Events < e.maxEvt {
		return false
	}
	e.res.Cutoff = true
	return true
}

// admit takes the next event of the bucket being drained off the queue's
// count and counts it as processed.
func (e *Engine) admit() {
	e.q.count--
	e.res.Events++
	e.mEvents.Inc()
}

// stopped reports whether the event just processed made the last owed
// decision, which ends the run. A crash drop is not checked: the run goes
// on to the next event that reaches a node, or to quiescence.
func (e *Engine) stopped() bool {
	return e.undecided == 0
}

// deliver hands sender u's in-flight message to v at the current time. A
// delivery is lost when the receiver has crashed, or when the sender
// crashed before this delivery time (mid-broadcast crash: the remaining
// neighbors never receive the message). It reports whether the message was
// delivered; the caller counts it.
func (e *Engine) deliver(v, u int) bool {
	if e.crashedBy(v, e.now) {
		e.markCrashed(v)
		e.mDrops.Inc()
		return false
	}
	if e.crashedBy(u, e.now) {
		// In a bucket phase u may belong to another worker; Run marks
		// every scheduled crash once the run is over.
		if !e.phasing {
			e.markCrashed(u)
		}
		e.mDrops.Inc()
		return false
	}
	e.mDeliver.Inc()
	msg := e.inMsg[u]
	e.observe(Event{Kind: EventDeliver, Time: e.now, Node: v, Peer: u, Message: msg})
	e.algs[v].OnReceive(msg)
	return true
}

// ack completes u's broadcast bseq at the current time, unless u has
// crashed. It reports whether the broadcast was acked; the caller counts
// it.
func (e *Engine) ack(u int, bseq int32) bool {
	if e.crashedBy(u, e.now) {
		e.markCrashed(u)
		e.mDrops.Inc()
		return false
	}
	if !e.inflight[u] || int32(e.bseq[u]-1) != bseq {
		panic(fmt.Sprintf("sim: stray ack for node %d bseq %d", u, bseq))
	}
	e.inflight[u] = false
	msg := e.inMsg[u]
	e.inMsg[u] = nil
	e.observe(Event{Kind: EventAck, Time: e.now, Node: u, Message: msg})
	e.algs[u].OnAck(msg)
	return true
}

func (e *Engine) markCrashed(i int) {
	if e.res.Crashed[i] {
		return
	}
	e.res.Crashed[i] = true
	e.observe(Event{Kind: EventCrash, Time: e.crashAt[i], Node: i})
}
