// Package amac defines the abstract MAC layer model contract from
// "Consensus with an Abstract MAC Layer" (Newport, PODC 2014).
//
// The model: nodes communicate over an undirected topology graph with a
// local reliable broadcast primitive. A broadcast(m) eventually delivers m
// to every neighbor of the sender, after which the sender receives an
// acknowledgment. All nondeterminism is captured by a message scheduler
// that chooses delivery and acknowledgment times, subject to a finite bound
// Fack (unknown to the nodes) on the broadcast-to-ack delay. Local
// computation takes zero time.
//
// Algorithms are written as deterministic state machines against the
// Algorithm interface and run unmodified on any substrate that implements
// the contract: the discrete-event simulator (internal/sim) and the FLP
// valid-step explorer (internal/lowerbound). Through Inspector,
// experiments, tests and examples read a node's View without naming its
// concrete type.
package amac

import (
	"fmt"

	"github.com/absmac/absmac/internal/metrics"
)

// NodeID identifies a node. IDs are unique and comparable. Anonymous
// algorithms (studied in Section 3.2 of the paper) simply never read them.
type NodeID int64

// NoID is the zero NodeID used where an id is absent (for example in
// anonymous executions or unset parent pointers).
const NoID NodeID = -1

// Value is a consensus input/decision value. The paper studies binary
// consensus, so values are 0 or 1 throughout, but the type does not
// restrict this: the harness's input patterns are binary by construction.
type Value int

// Message is the unit of communication. Implementations must be immutable
// after broadcast: the same value is delivered to every neighbor.
//
// The model restricts messages to carry at most a constant number of node
// ids (Section 2 of the paper). IDCount reports how many ids a message
// carries so substrates can audit the bound.
type Message interface {
	IDCount() int
}

// API is the interface a substrate hands to an algorithm at Start time.
// It is valid for the lifetime of the execution and must only be used from
// within the algorithm's event handlers (substrates serialize all handler
// invocations for a given node).
type API interface {
	// ID returns this node's unique id. Anonymous algorithms must not
	// call it; the anonymity auditor in internal/consensus verifies this.
	ID() NodeID

	// Broadcast hands m to the MAC layer. It reports false when a
	// broadcast is already in flight (the model discards extra messages
	// sent before the current ack arrives). It never blocks.
	Broadcast(m Message) bool

	// Decide performs the node's single irrevocable decide action.
	// Further calls are recorded by the substrate as violations.
	Decide(v Value)

	// Now returns the current timestamp. Timestamps are totally ordered
	// and consistent across nodes (virtual time on the simulator). The
	// paper's change service (Figure 3, Algorithm 3) requires such
	// timestamps.
	Now() int64
}

// Algorithm is a deterministic per-node state machine. The substrate calls
// Start exactly once before any other handler, then OnReceive for every
// message delivered to this node and OnAck when the node's in-flight
// broadcast completes. Handlers run serially per node and must not retain
// the API beyond the execution. On every substrate OnAck(m) runs after
// every neighbor's OnReceive(m) has returned, so from then on the sender
// may reuse m.
//
// Handlers of different nodes may run concurrently: within one calendar
// bucket on the simulator (internal/sim). So the nodes of one run
// share no unsynchronized mutable state — an object they all see, such as
// wpaxos.CountAudit (a mutex) or consensus.AnonymityAudit's counter (an
// atomic), guards itself — and a delivered message is read-only until its
// sender's ack: neither the sender nor a receiver may write it before
// then.
type Algorithm interface {
	Start(api API)
	OnReceive(m Message)
	OnAck(m Message)
}

// Ballot is a Paxos proposal number: a tag, then the proposer's id,
// compared in that order. The zero Ballot is below every real one.
type Ballot struct {
	Tag int64
	ID  NodeID
}

// View is a read-only snapshot of one node's state, shaped after weave's
// gossip Paxos claims (promise, accepted ballot, accepted value). It is
// computed only when Inspect is called. Fields an algorithm does not track
// stay zero, and Omega is NoID where there is no leader.
type View struct {
	Decided  bool
	Decision Value
	// Omega is the node's leader estimate; OmegaSince is when it last
	// moved and RouteSince when the node's distance to it last improved.
	Omega                  NodeID
	OmegaSince, RouteSince int64
	// Promised is the highest ballot the node's acceptor promised,
	// Accepted and AcceptedVal what it last accepted (a zero Accepted:
	// nothing), and MaxTag the highest ballot tag the node has seen.
	Promised, Accepted Ballot
	AcceptedVal        Value
	MaxTag             int64
}

// Inspector is implemented by every algorithm in this repository. Inspect
// runs between handlers or after the execution, never inside one.
type Inspector interface {
	Inspect() View
}

// DecisionView is the View of an algorithm that tracks only its decision.
func DecisionView(decided bool, v Value) View {
	return View{Decided: decided, Decision: v, Omega: NoID}
}

// NodeConfig carries the per-node instantiation parameters a Factory
// receives. Knowledge assumptions (n, diameter bounds, ...) deliberately do
// not appear here: algorithms that assume them take them as constructor
// arguments, which makes every knowledge assumption explicit at the call
// site, mirroring the paper's lower-bound taxonomy.
type NodeConfig struct {
	// ID is the node's unique id as assigned by the harness.
	ID NodeID
	// Input is the node's consensus initial value.
	Input Value
	// Metrics, when non-nil, is the substrate's metrics registry.
	// Algorithms register named slots against it (registration dedups by
	// name, so all nodes of a run share one slot per metric); a nil
	// registry hands back disabled handles that no-op, so algorithms
	// instrument unconditionally.
	Metrics *metrics.Registry
	// Prev is the algorithm this node's slot ran in the engine's previous
	// run, or nil. Only the simulator's Engine.Reset sets it. A factory
	// that recognizes Prev as one of its own nodes re-arms it in place for
	// this run — same state as a fresh node, the previous run's table
	// storage kept (ReuseUpTo, ReuseSized) — and any other factory ignores
	// it.
	Prev Algorithm
}

// Factory builds one node's algorithm instance. A Factory is invoked once
// per node before the execution starts. An algorithm a factory returns
// belongs to the engine until its next Reset, which may hand it back to a
// factory as NodeConfig.Prev: whoever keeps a node to read it after the
// run (Inspect) must read it before that Reset.
type Factory func(cfg NodeConfig) Algorithm

// ReuseUpTo returns s emptied for a re-armed node (NodeConfig.Prev). It
// keeps the backing array, zeroed to its full capacity so that nothing the
// last run stored stays reachable, while that holds at most max elements,
// a bound the configuration sets; a slot that served a larger network, or
// a table that outgrew the bound, lets go of it. How full the last run
// left s does not matter: a queue a run drains or a set it purges ends a
// run short of what it used, and a table kept only when full enough is
// dropped and regrown by append on most warm runs. A caller that wants
// the fresh and the warm node to hold the same storage allocates the
// table at max when ReuseUpTo returns less (the wPAXOS relay cycle).
func ReuseUpTo[S ~[]E, E any](s S, max int) S {
	if cap(s) > max {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

// ReuseSized returns s as n zeroed elements for a re-armed node's table
// whose size the configuration fixes (a bitset or a byte per id). It keeps
// the backing array when that holds n elements and no more than 2n, so a
// slot that served a larger network lets go of it.
func ReuseSized[S ~[]E, E any](s S, n int) S {
	if cap(s) < n || cap(s) > 2*n {
		return make(S, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// MaxMessageIDs is the constant bound on ids per message this repository's
// algorithms adhere to (the model requires only that some constant exists;
// wPAXOS's multiplexed broadcast carries up to twelve — one per service
// message plus routing and proposal-number ids, including the relayed
// response's triple of acceptor, proposer, and previous proposal's number).
// The simulator audits every broadcast against this bound.
const MaxMessageIDs = 12

// AuditIDCount returns an error when m reports more than MaxMessageIDs ids.
func AuditIDCount(m Message) error {
	if c := m.IDCount(); c > MaxMessageIDs {
		return fmt.Errorf("amac: message %T carries %d ids, exceeding the model bound %d", m, c, MaxMessageIDs)
	}
	return nil
}
