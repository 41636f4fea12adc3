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

	// O(1) StopWhenDecided bookkeeping: undecided counts the nodes with no
	// scheduled crash that have not yet decided. A node with a scheduled
	// crash never owes a decision — Run marks it crashed, so no verdict
	// waits on it.
	undecided int
	// checkStops, set by tests, asserts the counter against the O(n)
	// reference scan at every stop evaluation.
	checkStops bool
	// queueHook, set by tests, sees every event the engine pushes
	// (popped false) and processes (popped true), in that order: the
	// differential test mirrors the pushes into the reference heap and
	// asserts each processed event against it.
	queueHook func(t int64, ev event, popped bool)

	// Hot-path metric handles, re-registered at every Reset. With
	// Config.Metrics nil these are zero handles and every mutation is one
	// predictable nil-check branch — the zero-cost-when-off contract.
	mEvents    metrics.Counter // processed queue events
	mDeliver   metrics.Counter // deliveries handed to OnReceive
	mDrops     metrics.Counter // deliveries/acks lost to crash cutoffs
	mDiscards  metrics.Counter // broadcasts attempted while one in flight
	mQueueHigh metrics.Gauge   // event-queue depth (high-water tracked)

	// par runs large bucket arrays on every core (phase.go); it is made by
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
// stopped early (StopWhenDecided, MaxEvents) are dropped, and with them the
// in-flight messages they would have delivered. Each slot's algorithm goes
// back to the factory as amac.NodeConfig.Prev; a factory that re-arms it
// leaves none of the previous run in it (the harness's
// TestRecycledNodesMatchFresh holds every registered algorithm to a fresh
// engine). It panics on configuration errors, exactly as Run does.
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

	if cap(e.algs) >= n {
		// Zero the tails beyond n so a shrink does not pin the prior
		// run's algorithm state through stale alg/message references.
		clear(e.algs[n:cap(e.algs)])
		clear(e.inMsg[n:cap(e.inMsg)])
		e.algs = e.algs[:n]
		e.apis = e.apis[:n]
		e.ids = e.ids[:n]
		e.inflight = e.inflight[:n]
		e.inMsg = e.inMsg[:n]
		e.bseq = e.bseq[:n]
		e.crashAt = e.crashAt[:n]
		clear(e.inflight)
		clear(e.inMsg)
		clear(e.bseq)
	} else {
		algs := make([]amac.Algorithm, n)
		copy(algs, e.algs) // the previous run's nodes, for the factory to re-arm
		e.algs = algs
		e.apis = make([]api, n)
		e.ids = make([]amac.NodeID, n)
		e.inflight = make([]bool, n)
		e.inMsg = make([]amac.Message, n)
		e.bseq = make([]int, n)
		e.crashAt = make([]int64, n)
	}
	for i := range e.crashAt {
		e.crashAt[i] = -1
	}

	if e.res == nil || cap(e.res.Decided) < n {
		e.res = &Result{
			Decided:    make([]bool, n),
			Decision:   make([]amac.Value, n),
			DecideTime: make([]int64, n),
			Crashed:    make([]bool, n),
		}
	} else {
		e.res.Decided = e.res.Decided[:n]
		e.res.Decision = e.res.Decision[:n]
		e.res.DecideTime = e.res.DecideTime[:n]
		e.res.Crashed = e.res.Crashed[:n]
		clear(e.res.Decided)
		clear(e.res.Decision)
		clear(e.res.DecideTime)
		clear(e.res.Crashed)
	}
	*e.res = Result{
		Decided:       e.res.Decided,
		Decision:      e.res.Decision,
		DecideTime:    e.res.DecideTime,
		Crashed:       e.res.Crashed,
		MaxDecideTime: -1,
	}

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

	// Arm the O(1) StopWhenDecided counter: every node with no scheduled
	// crash owes a decision.
	e.undecided = 0
	for _, at := range e.crashAt {
		if at < 0 {
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
		e.hook(at, event{kind: EventDeliver, node: int32(v), peer: int32(u)}, false)
	}
	for i, v := range b.Unreliable {
		if at := e.plan.Recv[len(nbrs)+i]; at != NoDelivery {
			e.plan.Recv[len(nbrs)+i] = NoDelivery
			e.q.pushDelivery(at, int32(v), int32(u))
			e.hook(at, event{kind: EventDeliver, node: int32(v), peer: int32(u)}, false)
		}
	}
	e.q.pushAck(e.plan.Ack, int32(u), int32(b.Seq))
	e.hook(e.plan.Ack, event{kind: EventAck, node: int32(u), bseq: int32(b.Seq)}, false)
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
		e.par.decided(u, e.crashAt[u] < 0)
		return
	}
	if e.crashAt[u] < 0 {
		e.undecided--
	}
	if e.now > e.res.MaxDecideTime {
		e.res.MaxDecideTime = e.now
	}
	e.observe(Event{Kind: EventDecide, Time: e.now, Node: u, Value: v})
}

// allDecidedScan is the O(n) reference for the undecided counter: every
// node with no scheduled crash has decided. The run loop consults the
// counter; tests set checkStops to assert the two agree at every stop
// evaluation.
func (e *Engine) allDecidedScan() bool {
	for i, decided := range e.res.Decided {
		if !decided && e.crashAt[i] < 0 {
			return false
		}
	}
	return true
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
// place, front to back, or run as parallel phases when phaseWidth admits
// them (phase.go). No handler pushes into the bucket being drained —
// validatePlan puts every delivery and ack strictly after the broadcast's
// Now — so the arrays cannot grow under the loop. A drained bucket is
// reset once; a run that stops inside a bucket leaves it marked, and the
// next Reset clears it (eventQueue.init).
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
		if w := e.phaseWidth(len(b.dels)); w > 1 {
			if e.phase(w, b.dels, nil) {
				return
			}
		} else {
			for _, d := range b.dels {
				if e.cutoff() {
					return
				}
				e.admit()
				e.hook(t, event{kind: EventDeliver, node: d.node, peer: d.peer}, true)
				if e.deliver(int(d.node), int(d.peer)) {
					e.res.Deliveries++
					if e.stopped() {
						return
					}
				}
			}
		}
		if w := e.phaseWidth(len(b.acks)); w > 1 {
			if e.phase(w, nil, b.acks) {
				return
			}
		} else {
			for _, a := range b.acks {
				if e.cutoff() {
					return
				}
				e.admit()
				e.hook(t, event{kind: EventAck, node: a.node, bseq: a.bseq}, true)
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

// hook passes ev at time t to the test's queue hook, if one is armed.
func (e *Engine) hook(t int64, ev event, popped bool) {
	if e.queueHook != nil {
		e.queueHook(t, ev, popped)
	}
}

// stopped reports whether StopWhenDecided ends the run after the event
// just processed. A crash drop is not checked: the run goes on to the next
// event that reaches a node, or to quiescence.
func (e *Engine) stopped() bool {
	if !e.cfg.StopWhenDecided {
		return false
	}
	if e.checkStops {
		e.checkStopCounter()
	}
	return e.undecided == 0
}

func (e *Engine) checkStopCounter() {
	if (e.undecided == 0) != e.allDecidedScan() {
		panic(fmt.Sprintf("sim: undecided counter %d disagrees with reference scan at t=%d", e.undecided, e.now))
	}
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
