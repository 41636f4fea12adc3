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
//
// # Event queue and the Fack horizon
//
// Invariant: the engine's event ring covers the scheduler's declared
// horizon. validatePlan panics on any plan whose deliveries or ack fall
// outside (Now, Now+Fack], so every queued event lies within one Fack of
// the clock. queue.go therefore keeps one structure, a
// calendar ring of per-time buckets whose span is the smallest power of
// two above Scheduler.Fack(). Config.Validate rejects a Fack above
// MaxFack (2^20-1) with an error naming the number, and a push panics
// on an event outside [cur, cur+span), so nothing can alias another time's
// bucket. A push appends to a bucket array and sets the bucket's bit in a
// bitmap; deliveries and acks have a push each, so the per-delivery push
// has no kind switch.
//
// The run loop (Engine.drain) works a bucket at a time. Once per nonempty
// bucket it advances the cursor by a bitmap word scan (one word per 64
// buckets) and moves the clock and Result.Time; then it reads the bucket's
// delivery array and its ack array in place, front to back, handing each
// entry to Engine.deliver or Engine.ack — or, for a large bucket, runs
// each array as a parallel phase (Bucket phases, below). The choice is
// made once per bucket. The per-event checks stay per event: the MaxEvents
// cutoff, the event counts and the stop test. A drained bucket is
// truncated and its bit cleared once.
//
// Stop rule: every run ends on the event that makes the last owed
// decision, or at quiescence or the MaxEvents cutoff if that comes first.
// Engine.owes is the rule: a node owes a decision when it has no scheduled
// crash — the nodes the verdict judges, since Run marks every scheduled
// crash in Result.Crashed. The stop test runs after an event that reaches
// a node, never after a crash drop, so a run stops whatever doomed nodes
// are still running (TestStopOwesOnlyCrashFreeNodes).
//
// Invariant: no handler pushes into the bucket being drained. validatePlan
// requires every delivery and the ack to fall strictly after the
// broadcast's Now, including the ack of a sender with no recipient, so
// the arrays being read cannot grow under the loop. Replay applies the
// same rule to recorded steps, so a hand-edited artifact that acks at its
// broadcast diverges to the fallback planner instead.
//
// Re-arm rule: a run stopped by the stop rule or MaxEvents returns from
// inside a bucket and leaves it untruncated, with its bit still set. That
// happens even with no event left queued: the stop rule fires on the last
// ack of a run in which every node decides at its ack. Reset therefore
// resets every bucket still marked in the bitmap, not only when events
// remain; otherwise the next run would append behind the stale entries and
// every warm run would grow the arrays (TestResetAfterEarlyStop, and the
// zero allocs/op pin of BenchmarkWarmRunClique).
//
// Invariant: the message of a queued delivery is its sender's in-flight
// message. The abstract MAC layer gives a node one outstanding broadcast
// (Engine.broadcast discards a second), validatePlan puts every delivery
// of a broadcast at or before its ack, and co-timed deliveries are
// processed before acks — so from the moment a delivery is pushed until it
// is processed, Engine.inMsg[sender] is the message it was planned with.
// The queue stores none: a bucket is two append-only arrays, []{receiver,
// sender int32} for deliveries and []{node, bseq int32} for acks. Time is
// the bucket and insertion order is the array position, so neither is
// stored; an entry is 8 bytes with no pointer in it (clique:1024 peaks at
// 2^20 queued deliveries: 8 MB, where an event that carried its message
// was 72 B and 72 MB). Config.Validate bounds the node count by
// MaxNodes so indices fit. The test oracle checks each delivery against
// its plan and its broadcast's message.
//
// What the GC sees: the entry arrays are pointer-free and never scanned;
// the ring itself is 48 B a bucket (two slice headers) and is scanned, as
// is inMsg (one interface per node). The ring is 384 B at Fack 4, 24 KiB
// for Gate at Until ≈ 500, 384 KiB for EdgeOrder on clique:4096 and 48 MiB
// at MaxFack. Entry arrays stay with their bucket across runs, so a reused
// engine allocates nothing on the event path once every bucket has seen
// its peak. A fresh engine would pay for its 2·span arrays one doubling at
// a time, so arrays under 2048 entries are cut from shared 4096-entry
// blocks instead (a Run on clique:16 allocates 53 times, 2 of them for
// the queue; the outgrown halves stay in their block, at most 32 KiB an
// array) and only larger ones grow by append. BENCH_engine.json pins those
// counts.
//
// The engine's total order is (time, deliveries before acks, insertion
// order); an array read front to back is insertion order, so one array per
// (bucket, kind) yields exactly that order. The test oracle checks it from
// outside, through a Scheduler wrapper and Config.Observer: the processed
// events must be the pushes sorted by that order, less the crash drops —
// across every registered scheduler, crash pattern and overlay family plus
// a seeded fuzz loop.
//
// # Bucket phases
//
// Within one bucket array the handlers of different nodes are independent:
// a delivery carries its sender's in-flight message, fixed before the
// bucket; no handler pushes into the bucket being drained; and nodes share
// no unsynchronized state (the amac.Algorithm contract). drain therefore
// runs a large bucket as parallel phases (phase.go): its deliveries as one
// phase, replayed, then its acks as another, replayed. Admission is per
// bucket, so the acks of a bucket whose deliveries are large run on every
// core too, however few they are (on expander:4096:8 no ack array reaches
// phaseMin by itself; left sequential, the acks took a third of drain's
// wall time on two Ps). The
// acks stay a pass of their own: wpaxos and floodpaxos refill their one
// message in place at the ack, and a co-timed delivery of the old
// message must run first. A bucket runs as phases when all of these hold:
//   - the bucket holds at least phaseMin (4096) events, deliveries and
//     acks together;
//   - at least two Ps are left: GOMAXPROCS, less one for every other
//     engine of the process inside its drain, is 2 or more. Engines that
//     already hold every P — a parallel sweep — keep the sequential loop;
//   - the run has no Observer (so none under the test oracle) and no
//     Metrics;
//   - the bucket fits in the remaining event budget;
//   - the stop rule has not already fired (the undecided counter is not
//     0 — the sequential loop would stop after the bucket's first event
//     that reaches a node);
//   - the scheduler is one of this package's own: Synchronous, MaxDelay,
//     Random, EdgeOrder, or Lossy, Gate or SlowSubset around one of them.
//     Replay, ScheduleRecorder, Fingerprinter and any wrapper that watches
//     the run (a tracer bracketing handlers with spans keeps one span
//     stack) stay on the sequential loop.
//
// GOMAXPROCS=1 runs the sequential loop everywhere: it is the A/B switch.
// Inside a phase:
//   - Each worker owns a contiguous node range and walks the array front
//     to back, so every node handles its events in queue order. The
//     ranges are runs of ceil(n/workers) nodes: phases.span and owner are
//     the one node-to-worker map, for the passes and for the handlers'
//     Broadcast and Decide. drain's goroutine offers the workers to a
//     process-wide pool and runs every worker the pool has not started
//     yet: it waits only for workers already running, never for a pool
//     kept busy by other engines to get round to it. A warm phase
//     allocates nothing (BENCH_engine.json pins BenchmarkWarmRunClique at
//     -cpu 2, whose clique:1024 buckets all take phases, ack arrays
//     included).
//   - A handler's node-local effects are written in place: the in-flight
//     flag, message and sequence number, Decided, Decision and DecideTime,
//     and Crashed for its own node. A sender-crash drop does not mark the
//     sender, which another worker owns; Run marks every scheduled crash
//     once the run is over.
//   - Everything else is logged per worker, tagged with the event index:
//     the ID audit, Scheduler.Plan and validatePlan, the queue pushes and
//     the Broadcasts count (all of them send, the engine half of a
//     broadcast) and second-decide violations. After the phase the logs
//     are merged and replayed in index order, so plans, rng draws, queue
//     order and violation order are the sequential ones. Deliveries, Acks,
//     Discards and the undecided counter are per-worker sums.
//   - The stop stays exact. The owing nodes — those Engine.owes names,
//     undecided when the phase starts — run first, each up to and
//     including the event at which it decides. If that decides them all,
//     the stop index k is the latest of those events and a second pass
//     runs the rest of the array only below k; otherwise the second pass
//     runs the rest in full.
//   - A handler panic is recovered in its worker. The events before the
//     lowest panicking index, and what that handler did before it
//     panicked, are replayed — so a scheduler panic among them is raised
//     first, as the sequential loop would — and the panic is re-raised
//     on Run's goroutine.
//
// TestBucketPhasesMatchSequential forces every array of the golden sweep
// grid, the large bench-shaped runs and probes built to stop mid-bucket,
// decide twice and panic onto 2, 3 and 5 workers, and compares every
// Result field, every node's amac.View and every plan, in order, with the
// sequential loop. TestBucketPhaseAdmission runs the unforced rule on
// buckets of 9 120 deliveries and 96 acks: each must take a delivery
// phase and an ack phase when there are Ps to spare and none on one P,
// with the same execution.
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
	// executions; 0 means DefaultMaxEvents, the one budget.
	MaxEvents int
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
// It is the only default: every layer above the engine passes a zero cap
// through, so a (scenario, seed) runs the same execution from every entry.
const DefaultMaxEvents = 5_000_000

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
	if cfg.MaxEvents < 0 {
		return fmt.Errorf("sim: MaxEvents=%d is negative (0 means DefaultMaxEvents)", cfg.MaxEvents)
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

// Run executes the configuration to completion and returns the result. It
// panics on configuration errors (nil fields, length mismatches, duplicate
// ids) and on scheduler contract violations; algorithm/problem violations
// are recorded in the result instead. Callers running many configurations
// back to back can instead reuse one Engine via NewEngine/Reset, which
// keeps the engine's buffers across runs.
func Run(cfg Config) *Result {
	return NewEngine(cfg).Run()
}
