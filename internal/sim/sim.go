// Package sim implements a deterministic discrete-event simulator for the
// abstract MAC layer model of Newport (PODC 2014).
//
// All nondeterminism in the model lives in the message scheduler, so the
// simulator delegates every timing decision to a pluggable Scheduler: at
// each broadcast the scheduler fills a delivery plan (a receive time per
// neighbor plus an acknowledgment time) into an engine-owned reusable
// buffer, and the engine executes plans on a bounded-horizon calendar
// queue of per-tick event arrays (see eventQueue). A push appends to the
// array of its tick; the run loop advances the clock once per nonempty
// tick and reads that tick's arrays in place. In the steady state neither
// the broadcast path nor the run loop allocates; the interface calls left
// are Scheduler.Plan, once per broadcast, and the algorithm handlers.
// Engines are reusable: NewEngine/Reset re-arm one engine for
// configuration after configuration, keeping node state, Result slices,
// the plan buffer and the queue's arrays, which is how sweep workers
// amortize per-run setup across the seeds of a cell.
// The engine validates every plan against the model contract — deliveries
// and the ack strictly after the broadcast, the ack no earlier than any
// delivery, everything within the scheduler's declared Fack — so a buggy
// scheduler fails loudly instead of silently producing an execution
// outside the model.
//
// Crash failures (used by the Theorem 3.2 experiments) are expressed as a
// per-node cutoff time: events affecting a node after its crash time are
// dropped, which yields exactly the paper's mid-broadcast crash semantics
// (some neighbors received the in-flight message, the rest never will, and
// the ack is lost).
package sim

import (
	"fmt"
	"math"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/metrics"
)

// Broadcast describes one broadcast for which a Scheduler must produce a
// Plan.
type Broadcast struct {
	// Sender is the broadcasting node's index in the topology graph.
	Sender int
	// Seq is the per-sender broadcast sequence number, starting at 0.
	Seq int
	// Neighbors lists the sender's reliable neighbors (crashed or not;
	// crash cutoffs are applied by the engine, not the scheduler).
	Neighbors []int
	// Unreliable lists the sender's unreliable neighbors (present only
	// when Config.Unreliable is set — the dual-graph model variant of
	// Kuhn, Lynch and Newport that the paper's Section 2 mentions).
	// The scheduler may deliver to any subset of them.
	Unreliable []int
	// Now is the virtual time at which the broadcast was issued.
	Now int64
	// Message is the message being sent (schedulers may inspect it, but
	// the model's schedulers are content-oblivious).
	Message amac.Message
}

// NoDelivery marks a plan slot whose recipient is skipped. Only unreliable
// recipients may be skipped; a reliable slot left at NoDelivery is a
// scheduler contract violation.
const NoDelivery int64 = -1

// Plan gives the absolute virtual times at which each recipient receives
// the message and at which the sender is acked. Recv is positional: slot i
// belongs to Broadcast.Neighbors[i] when i < len(Neighbors) and to
// Broadcast.Unreliable[i-len(Neighbors)] otherwise. A valid plan satisfies
// Now < Recv[i] <= Ack <= Now+Fack for every reliable slot, and Now < Ack
// <= Now+Fack even when there is no recipient; unreliable slots may
// instead hold NoDelivery (the scheduler declines that edge).
//
// The engine owns the Recv buffer and reuses it across broadcasts — it
// arrives pre-sized to the recipient count with every slot set to
// NoDelivery, so the broadcast hot path performs no per-plan allocation.
// Schedulers must fill slots in place and must not grow, shrink or retain
// the slice.
type Plan struct {
	Recv []int64
	Ack  int64
}

// Scheduler is the model's message scheduler. Implementations must be
// deterministic given their construction parameters (seeded randomness is
// fine) so executions are reproducible.
type Scheduler interface {
	// Fack returns the scheduler's delivery bound. The engine enforces
	// it; algorithms never see it.
	Fack() int64
	// Plan fills p with the delivery plan for one broadcast. See Plan
	// for the buffer contract. Wrapping schedulers (Gate, SlowSubset,
	// Lossy) delegate to their base and then mutate p in place.
	Plan(b Broadcast, p *Plan)
}

// Crash schedules a crash failure: node Node halts at time At. Deliveries
// to and from the node planned after At never happen, and any in-flight
// broadcast loses its ack. Crashes serialize inside Schedule artifacts,
// hence the JSON tags.
type Crash struct {
	Node int   `json:"node"`
	At   int64 `json:"at"`
}

// Config describes one execution.
type Config struct {
	// Graph is the topology. Required.
	Graph *graph.Graph
	// Inputs holds each node's consensus initial value, indexed by node.
	// Required, length Graph.N().
	Inputs []amac.Value
	// Factory builds each node's algorithm. Required.
	Factory amac.Factory
	// Scheduler controls message timing. Required.
	Scheduler Scheduler
	// IDs optionally assigns node ids (defaults to index+1). Must be
	// unique when present.
	IDs []amac.NodeID
	// Unreliable optionally adds a second topology graph of unreliable
	// links (the dual-graph abstract MAC layer variant): a broadcast is
	// guaranteed to reach Graph-neighbors but only *may* reach
	// Unreliable-neighbors, at the scheduler's whim. It must have the
	// same node count as Graph and be edge-disjoint from it.
	Unreliable *graph.Graph
	// Crashes optionally schedules crash failures.
	Crashes []Crash
	// MaxEvents caps processed events to guard against non-quiescent
	// executions; 0 means DefaultMaxEvents.
	MaxEvents int
	// StopWhenDecided stops the run as soon as every non-crashed node
	// has decided (the default harness behaviour). When false the run
	// continues to quiescence, which exercises post-decision behaviour.
	StopWhenDecided bool
	// Observer, when non-nil, receives every engine event in execution
	// order (for tracing). Event.Message is only guaranteed valid for the
	// duration of the callback: a sender may reuse its message once acked
	// (wpaxos and floodpaxos nodes do), so an observer that retains events
	// must extract what it needs rather than hold the Message reference
	// (trace.Recorder formats only the type).
	Observer func(Event)
	// Metrics, when non-nil, receives the engine's hot-path counters
	// (events processed, deliveries, crash drops, discards, queue-depth
	// high-water) and is handed to every node's factory via
	// amac.NodeConfig so algorithms register their own slots against the
	// same registry. Every slot is determined by the execution alone —
	// nothing that depends on what the engine ran before (queue or ring
	// warm-up) may be registered, because sweeps merge these values into
	// cell output that must be identical at any worker width and cell
	// order. Reset zeroes the registry's values (registrations
	// persist, so a reused engine pays O(registered slots) per run).
	// When nil, every handle is disabled and the run path is unchanged —
	// the zero-cost-when-off contract pinned by BenchmarkBroadcastPlan.
	Metrics *metrics.Registry
}

// DefaultMaxEvents bounds event processing when Config.MaxEvents is zero.
const DefaultMaxEvents = 20_000_000

// MaxFack is the widest horizon a scheduler may declare. The event queue
// keeps one bucket per time in [Now, Now+Fack], rounded up to a power of
// two; MaxFack caps that ring at 2^20 buckets (48 MiB of bucket headers).
const MaxFack = 1<<20 - 1

// MaxNodes is the largest topology the engine runs: the event queue stores
// node indices as int32.
const MaxNodes = math.MaxInt32

// Validate checks the configuration without running it: required fields,
// a node count within MaxNodes, input/id lengths, id uniqueness, a
// scheduler Fack in [1, MaxFack], crash ranges and the unreliable-graph
// contract. Run panics on exactly the errors Validate reports, so callers
// that assemble configurations from external input (flags, sweep grids)
// can surface them as errors instead.
func (cfg *Config) Validate() error {
	if cfg.Graph == nil {
		return fmt.Errorf("sim: Config.Graph is nil")
	}
	n := cfg.Graph.N()
	if err := checkNodeCount(n); err != nil {
		return err
	}
	if len(cfg.Inputs) != n {
		return fmt.Errorf("sim: %d inputs for %d nodes", len(cfg.Inputs), n)
	}
	if cfg.Factory == nil {
		return fmt.Errorf("sim: Config.Factory is nil")
	}
	if cfg.Scheduler == nil {
		return fmt.Errorf("sim: Config.Scheduler is nil")
	}
	if cfg.Scheduler.Fack() <= 0 {
		return fmt.Errorf("sim: scheduler declares Fack=%d, need > 0", cfg.Scheduler.Fack())
	}
	if f := cfg.Scheduler.Fack(); f > MaxFack {
		return fmt.Errorf("sim: scheduler declares Fack=%d, above MaxFack=%d", f, int64(MaxFack))
	}
	if cfg.IDs != nil {
		if len(cfg.IDs) != n {
			return fmt.Errorf("sim: %d ids for %d nodes", len(cfg.IDs), n)
		}
		seen := make(map[amac.NodeID]bool, n)
		for _, id := range cfg.IDs {
			if seen[id] {
				return fmt.Errorf("sim: duplicate node id %d", id)
			}
			seen[id] = true
		}
	}
	if cfg.Unreliable != nil {
		if cfg.Unreliable.N() != n {
			return fmt.Errorf("sim: unreliable graph has %d nodes, topology has %d", cfg.Unreliable.N(), n)
		}
		for u := 0; u < n; u++ {
			for _, v := range cfg.Unreliable.Neighbors(u) {
				if cfg.Graph.HasEdge(u, v) {
					return fmt.Errorf("sim: edge {%d,%d} is both reliable and unreliable", u, v)
				}
			}
		}
	}
	for _, c := range cfg.Crashes {
		if c.Node < 0 || c.Node >= n {
			return fmt.Errorf("sim: crash of node %d out of range", c.Node)
		}
		if c.At < 0 {
			return fmt.Errorf("sim: crash at negative time %d", c.At)
		}
	}
	return nil
}

// checkNodeCount rejects a topology whose indices the event queue cannot
// hold.
func checkNodeCount(n int) error {
	if n > MaxNodes {
		return fmt.Errorf("sim: topology has %d nodes, above MaxNodes=%d", n, MaxNodes)
	}
	return nil
}

// EventKind enumerates observable engine events.
type EventKind int

// Event kinds.
const (
	EventBroadcast EventKind = iota + 1
	EventDeliver
	EventAck
	EventDecide
	EventCrash
	EventDiscard // broadcast attempted while one was in flight
	EventDiverge // a replayed execution left its recorded schedule

	// numEventKinds is the sentinel bounding the enum: new kinds go above
	// it, and EventKinds derives its slice from it, so the list of kinds
	// cannot drift from the const block.
	numEventKinds
)

func (k EventKind) String() string {
	switch k {
	case EventBroadcast:
		return "broadcast"
	case EventDeliver:
		return "deliver"
	case EventAck:
		return "ack"
	case EventDecide:
		return "decide"
	case EventCrash:
		return "crash"
	case EventDiscard:
		return "discard"
	case EventDiverge:
		return "diverge"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// EventKinds returns every event kind, in declaration order. Consumers
// that iterate kinds (trace summaries, filters) should range over this
// slice rather than hard-code the first/last kind, so a newly added kind
// cannot be silently skipped. The slice is derived from the const block's
// sentinel, not hand-maintained.
func EventKinds() []EventKind {
	ks := make([]EventKind, 0, numEventKinds-1)
	for k := EventBroadcast; k < numEventKinds; k++ {
		ks = append(ks, k)
	}
	return ks
}

// Event is one observable occurrence in an execution.
type Event struct {
	Kind EventKind
	Time int64
	// Node is the acting node (sender, receiver, decider, crasher).
	Node int
	// Peer is the counterparty when meaningful (sender for deliveries).
	Peer int
	// Message is the message involved, when meaningful.
	Message amac.Message
	// Value is the decision value for EventDecide.
	Value amac.Value
}

// Violation records a detected breach of the problem or model contract.
type Violation struct {
	Time int64
	Node int
	Desc string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%d node=%d: %s", v.Time, v.Node, v.Desc)
}

// Result summarizes an execution.
type Result struct {
	// Decided[i] reports whether node i decided; Decision[i] and
	// DecideTime[i] are meaningful only when it did.
	Decided    []bool
	Decision   []amac.Value
	DecideTime []int64
	// Crashed[i] reports whether node i crashed.
	Crashed []bool
	// Time is the virtual time of the last processed event.
	Time int64
	// MaxDecideTime is the latest decision time among deciders (the
	// experiment's "decision time"), or -1 when nobody decided.
	MaxDecideTime int64
	// Broadcasts, Deliveries, Acks and Discards count MAC-layer events.
	Broadcasts, Deliveries, Acks, Discards int
	// Events counts processed queue events.
	Events int
	// Quiescent reports that the event queue drained.
	Quiescent bool
	// Cutoff reports that MaxEvents was reached.
	Cutoff bool
	// Violations lists contract breaches (double decide, audit failures).
	Violations []Violation
}

// AllDecided reports whether every non-crashed node decided.
func (r *Result) AllDecided() bool {
	for i, d := range r.Decided {
		if !d && !r.Crashed[i] {
			return false
		}
	}
	return true
}

// DecidedValues returns the set of distinct decided values.
func (r *Result) DecidedValues() []amac.Value {
	seen := map[amac.Value]bool{}
	var vals []amac.Value
	for i, d := range r.Decided {
		if d && !seen[r.Decision[i]] {
			seen[r.Decision[i]] = true
			vals = append(vals, r.Decision[i])
		}
	}
	return vals
}

// event is a queued occurrence as Engine.queueHook sees it: what happens
// (kind) and to whom; its time travels beside it. It exists only for the
// hook (Engine.hook): the queue stores less than this — see eventQueue in
// queue.go for what it drops and why.
type event struct {
	kind EventKind
	node int32 // acted-on node (receiver for deliver, sender for ack)
	peer int32 // deliveries only: the sender
	// bseq (acks only) is the sender's broadcast sequence number truncated
	// to 32 bits: it only feeds the stray-ack check, which compares it
	// under the same truncation.
	bseq int32
}

// Run executes the configuration to completion and returns the result. It
// panics on configuration errors (nil fields, length mismatches, duplicate
// ids) and on scheduler contract violations; algorithm/problem violations
// are recorded in the result instead. Callers running many configurations
// back to back can instead reuse one Engine via NewEngine/Reset, which
// keeps the engine's buffers across runs.
func Run(cfg Config) *Result {
	return NewEngine(cfg).Run()
}
