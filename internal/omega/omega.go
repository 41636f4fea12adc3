// Package omega is the leader estimate Ω that wPAXOS (internal/core/wpaxos)
// runs on under both of its response transports: the paper's leader election
// (Algorithm 2) and change notices (Algorithm 3), with a suspicion-based
// failure detector in place of Algorithm 2's monotone max-id rule. A node
// embeds one Service by value.
//
// Algorithm 2 elects the maximum id ever heard, monotonically — correct in
// crash-free executions but fatal under leader death: every survivor gates
// its proposer on omega == self and waits on a corpse (Theorem 3.2 made
// concrete). The Detector keeps the deterministic max-id rule but adds
// suspicion:
//
//   - Membership: ids are learned by gossip (the leader slot of every
//     broadcast, Gossip) into a bitset over 0..n and a sorted IDSet for any
//     other id; read in id order, so rotation order is identical across
//     nodes and seeds. Gossip alternates between the current omega — the
//     paper's O(D·Fack) leader flood — and a round-robin walk of the member
//     set by rank, so every node converges on the same member list.
//   - Suspicion: a node tracks the time of the last *novel* information it
//     observed — any dedup-passing state change (new member, fresh change
//     notice, tree improvement, first-seen proposition, aggregated
//     response or relayed response). When nothing novel arrives for longer
//     than the silence bound, the current omega is demoted and the next
//     highest unsuspected member takes over.
//   - Silence bound: fhat * (4n+8) * mult, where fhat is the largest
//     broadcast-to-ack delay this node has observed (its running Fack
//     estimate) and mult doubles on every firing (capped). The 4n+8
//     factor covers the worst-case information latency of a proposal
//     round trip across the network; the doubling makes false suspicion
//     self-healing — a too-small bound only delays, never prevents,
//     convergence, because a falsely demoted leader's proposals still get
//     responses (both transports answer every proposer).
//   - Re-promotion: when the local node is omega and every other member
//     is suspected, continued silence clears all suspicions and
//     re-promotes the maximum member, re-probing nodes that may have been
//     falsely demoted ("recovery-free silence" wraps the rotation).
//
// False suspicion is safe — PAXOS safety is proposer-independent — so the
// detector only needs eventual accuracy in the Ω sense: if any majority
// survives, some survivor eventually believes itself leader long enough
// to drive a proposal to completion. Undecided nodes broadcast on every
// pump (the leader slot is never empty), so the ack stream that clocks
// Check never dries up.
//
// Change notices (Algorithm 3) tell the leader to start a fresh proposal:
// a node that sees Ω or its route to Ω move stamps a notice with the
// time; the newest notice wins and is re-broadcast on every pump until a
// newer one supersedes it, so one lost to a lossy edge or a crashed relay
// is offered again. Receivers deduplicate by timestamp, which keeps the
// retransmissions idempotent.
package omega

import (
	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/metrics"
)

// LeaderMsg is the leader slot's <leader, id> message (Algorithm 2): one
// gossiped member id.
type LeaderMsg struct {
	ID amac.NodeID
}

// ChangeMsg is the <change, t, id> notice (Algorithm 3).
type ChangeMsg struct {
	T  int64
	ID amac.NodeID
}

// Service is one node's Ω: the Detector, whose methods it promotes, and
// the change-notice queue. All methods are called from the node's
// serialized event handlers.
type Service struct {
	Detector
	api amac.API
	// change is the newest notice. Its T is -1, the paper's negative
	// infinity, until there is one: timestamps are never negative.
	change ChangeMsg
}

// Init sets the service up for the node api belongs to, in a network of
// size n, with its metric slots registered against r (nil-safe). A
// service that served an earlier run keeps its detector's table storage.
func (s *Service) Init(api amac.API, n int, r *metrics.Registry) {
	s.api, s.change = api, ChangeMsg{T: -1}
	s.init(api.ID(), n)
	s.Instrument(r)
}

// Hear takes a gossiped member id and reports whether Ω moved. Omega
// itself, over a third of all gossip, is answered here without a call.
func (s *Service) Hear(id amac.NodeID) bool { return id != s.omega && s.hear(id) }

func (s *Service) hear(id amac.NodeID) bool {
	prev := s.omega
	if !s.learn(id) {
		return false
	}
	now := s.api.Now()
	s.Novel(now)
	if s.omega == prev {
		return false
	}
	s.since = now
	return true
}

// Changed queues a notice of a local change (Ω or the route to Ω moved).
func (s *Service) Changed() { s.change = ChangeMsg{T: s.api.Now(), ID: s.self} }

// Notice takes a received notice and reports whether it was fresh (newer
// than any seen), in which case it is queued and novel.
func (s *Service) Notice(m ChangeMsg) bool {
	if m.T <= s.change.T {
		return false
	}
	s.notice(m)
	return true
}

// notice stays out of line so that Notice, run on nearly every delivery,
// inlines.
//
//go:noinline
func (s *Service) notice(m ChangeMsg) {
	s.change = m
	s.Novel(s.api.Now())
}

// Next returns the Ω slots of the next broadcast: the member to gossip,
// and the newest notice when there is one (it stays queued: sticky).
func (s *Service) Next() (LeaderMsg, ChangeMsg, bool) {
	return LeaderMsg{ID: s.Gossip()}, s.change, s.change.T >= 0
}
