package sim

import (
	"sort"
	"testing"

	"github.com/absmac/absmac/internal/amac"
)

// Oracle checks one run from outside the engine. It sees the run only
// through two things every caller has: a Scheduler wrapper, which logs each
// finished plan as the engine's pushes in push order, and Config.Observer.
// After the run, Check holds the run to the model:
//   - Order: the observed deliveries and acks are exactly the first
//     Result.Events pushes, sorted by (time, deliveries before acks, push
//     order), minus those the crash rule drops. Taking a prefix of the
//     sorted pushes is sound because every push lands after the current
//     time (validatePlan), so no later push sorts before a processed event.
//   - Content: each delivery and ack is a push of its broadcast's plan and
//     carries that broadcast's message.
//   - Stop: the run ends on the event that makes the last owed decision (a
//     node owes one when it has no scheduled crash), not one event later;
//     a run with no such event ends at quiescence or at its event budget.
type Oracle struct {
	t       testing.TB
	base    Scheduler
	observe func(Event) // the caller's own Observer, if any
	maxEvt  int
	crashAt []int64 // each node's earliest scheduled crash, or -1

	pushes []oraclePush
	msgs   []amac.Message // each broadcast's message, in plan order
	latest []int          // each node's latest broadcast, or -1

	owed    []bool // no scheduled crash
	decided []bool
	left    int // owed nodes that have not decided
	seen    []oracleEvent
}

// oraclePush is one event the engine queued: a delivery to node from peer,
// or the ack of node's broadcast (peer == node), of broadcast bcast.
type oraclePush struct {
	at         int64
	ack        bool
	node, peer int
	bcast      int
}

// oracleEvent is one delivery or ack the Observer saw. bcast is the
// latest broadcast of its sender at that moment, msgOK whether the event
// carried that broadcast's message, and done whether every owed decision
// was made once its handler returned.
type oracleEvent struct {
	oraclePush
	msgOK, done bool
}

// Drops counts the processed events the crash rule dropped, by kind: a
// delivery to a crashed receiver, a delivery from a sender that crashed
// mid-broadcast, and the ack of a crashed sender.
type Drops struct{ Receiver, Sender, Ack int }

// Add accumulates d into the receiver.
func (d *Drops) Add(o Drops) {
	d.Receiver += o.Receiver
	d.Sender += o.Sender
	d.Ack += o.Ack
}

// Watch returns cfg with its scheduler and observer wrapped by a new
// oracle, and the oracle. Run the returned config on a new or Reset
// engine, then pass the Result to Check.
func Watch(t testing.TB, cfg Config) (Config, *Oracle) {
	n := cfg.Graph.N()
	o := &Oracle{
		t:       t,
		base:    cfg.Scheduler,
		observe: cfg.Observer,
		maxEvt:  cfg.MaxEvents,
		crashAt: make([]int64, n),
		latest:  make([]int, n),
		owed:    make([]bool, n),
		decided: make([]bool, n),
	}
	if o.maxEvt == 0 {
		o.maxEvt = DefaultMaxEvents
	}
	for i := range n {
		o.crashAt[i], o.latest[i] = -1, -1
	}
	for _, c := range cfg.Crashes {
		if at := o.crashAt[c.Node]; at < 0 || c.At < at {
			o.crashAt[c.Node] = c.At
		}
	}
	for i := range n {
		if o.owed[i] = o.crashAt[i] < 0; o.owed[i] {
			o.left++
		}
	}
	cfg.Scheduler, cfg.Observer = o, o.event
	return cfg, o
}

// RunWatched runs cfg on a new engine under a new oracle and checks it.
func RunWatched(t testing.TB, cfg Config) (*Result, Drops) {
	t.Helper()
	cfg, o := Watch(t, cfg)
	res := NewEngine(cfg).Run()
	return res, o.Check(res)
}

// Fack implements Scheduler.
func (o *Oracle) Fack() int64 { return o.base.Fack() }

// Plan implements Scheduler: it logs the finished plan as the pushes the
// engine makes from it, in the engine's push order.
func (o *Oracle) Plan(b Broadcast, p *Plan) {
	o.base.Plan(b, p)
	k := len(o.msgs)
	o.msgs = append(o.msgs, b.Message)
	o.latest[b.Sender] = k
	for i, v := range b.Neighbors {
		o.pushes = append(o.pushes, oraclePush{at: p.Recv[i], node: v, peer: b.Sender, bcast: k})
	}
	for i, v := range b.Unreliable {
		if at := p.Recv[len(b.Neighbors)+i]; at != NoDelivery {
			o.pushes = append(o.pushes, oraclePush{at: at, node: v, peer: b.Sender, bcast: k})
		}
	}
	o.pushes = append(o.pushes, oraclePush{at: p.Ack, ack: true, node: b.Sender, peer: b.Sender, bcast: k})
}

// event is the oracle's Observer. The message is compared while the
// callback runs, the only time it is sure to be valid.
func (o *Oracle) event(ev Event) {
	switch ev.Kind {
	case EventDeliver, EventAck:
		s := oracleEvent{oraclePush: oraclePush{at: ev.Time, ack: ev.Kind == EventAck, node: ev.Node, peer: ev.Peer}}
		if s.ack {
			s.peer = ev.Node
		}
		s.bcast = o.latest[s.peer]
		s.msgOK = s.bcast >= 0 && o.msgs[s.bcast] == ev.Message
		s.done = o.left == 0
		o.seen = append(o.seen, s)
	case EventDecide:
		if o.owed[ev.Node] && !o.decided[ev.Node] {
			o.decided[ev.Node] = true
			o.left--
			if len(o.seen) > 0 {
				o.seen[len(o.seen)-1].done = o.left == 0
			}
		}
	}
	if o.observe != nil {
		o.observe(ev)
	}
}

// crashed reports whether node v has halted before time t: a crash at T
// takes effect strictly after T.
func (o *Oracle) crashed(v int, t int64) bool {
	at := o.crashAt[v]
	return at >= 0 && at < t
}

// dropped reports whether the crash rule drops p, counting it in d.
func (o *Oracle) dropped(p oraclePush, d *Drops) bool {
	switch {
	case p.ack:
		if o.crashed(p.node, p.at) {
			d.Ack++
			return true
		}
	case o.crashed(p.node, p.at):
		d.Receiver++
		return true
	case o.crashed(p.peer, p.at):
		d.Sender++
		return true
	}
	return false
}

// Check holds res, the Result of the watched run, to the order, content and
// stop rules, and returns the drops among the processed events.
func (o *Oracle) Check(res *Result) Drops {
	o.t.Helper()
	if res.Events > len(o.pushes) {
		o.t.Fatalf("engine processed %d events, only %d were pushed", res.Events, len(o.pushes))
	}
	order := make([]int, len(o.pushes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := &o.pushes[order[a]], &o.pushes[order[b]]
		if pa.at != pb.at {
			return pa.at < pb.at
		}
		return !pa.ack && pb.ack
	})
	var d Drops
	seen, dels, acks, stop := 0, 0, 0, -1
	for k, i := range order[:res.Events] {
		p := o.pushes[i]
		if o.dropped(p, &d) {
			continue
		}
		if seen == len(o.seen) {
			o.t.Fatalf("event %d (%+v) was not observed: the run observed %d deliveries and acks", k, p, len(o.seen))
		}
		s := o.seen[seen]
		seen++
		if s.oraclePush != p {
			o.t.Fatalf("event %d: observed %+v, want %+v", k, s.oraclePush, p)
		}
		if !s.msgOK {
			o.t.Fatalf("event %d (%+v) does not carry its broadcast's message %v", k, p, o.msgs[p.bcast])
		}
		if p.ack {
			acks++
		} else {
			dels++
		}
		if s.done && stop < 0 {
			stop = k
		}
	}
	if seen != len(o.seen) {
		o.t.Fatalf("observed %d deliveries and acks, the first %d pushes hold %d", len(o.seen), res.Events, seen)
	}
	if res.Deliveries != dels || res.Acks != acks {
		o.t.Fatalf("Result counts %d deliveries and %d acks, observed %d and %d", res.Deliveries, res.Acks, dels, acks)
	}
	if res.Events > 0 && res.Time != o.pushes[order[res.Events-1]].at {
		o.t.Fatalf("Result.Time %d, last processed event at t=%d", res.Time, o.pushes[order[res.Events-1]].at)
	}
	drained := res.Events == len(o.pushes)
	switch {
	case stop >= 0 && stop != res.Events-1:
		o.t.Fatalf("the run went on to event %d past event %d, which made the last owed decision", res.Events-1, stop)
	case stop < 0 && !drained && res.Events != o.maxEvt:
		o.t.Fatalf("the run stopped after %d of %d events with %d owed decisions left and a budget of %d", res.Events, len(o.pushes), o.left, o.maxEvt)
	case res.Quiescent != drained || res.Cutoff != (stop < 0 && !drained):
		o.t.Fatalf("quiescent=%v cutoff=%v after %d of %d events (stopped on a decision: %v)", res.Quiescent, res.Cutoff, res.Events, len(o.pushes), stop >= 0)
	}
	return d
}
