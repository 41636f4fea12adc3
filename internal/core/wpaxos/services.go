package wpaxos

import (
	"sort"

	"github.com/absmac/absmac/internal/amac"
)

// This file implements the queue-backed support services of Figure 3.
// Each service owns a queue drained by the broadcast service (node.go);
// queue semantics follow the paper's UpdateQ procedures, extended with
// retransmit-until-superseded: once a service has something to say it
// keeps saying it on every pump until newer state supersedes it, so a
// message lost to a lossy overlay edge (or a crashed relay) is re-offered
// forever rather than gone. Leader election itself moved to the suspicion
// detector (detector.go); the leader slot of every broadcast now carries
// membership gossip from Detector.Gossip.

// changeService implements Algorithm 3 (change notification). Its queue
// holds the newest change — the largest timestamp wins — and re-broadcasts
// it until a newer change supersedes it. Receivers deduplicate by
// timestamp, so the retransmissions are idempotent. The caller is
// responsible for invoking the proposer's GenerateNewPAXOSProposal when
// receive reports true and the node currently believes it is the leader.
type changeService struct {
	lastChange int64 // -1 stands in for the paper's negative infinity
	queue      *ChangeMsg
}

func (s *changeService) init() {
	s.lastChange = -1
	s.queue = nil
}

// onChange handles a local change event (Omega_u or dist[Omega_u]
// updated) at time now.
func (s *changeService) onChange(now int64, self amac.NodeID) {
	s.lastChange = now
	s.queue = &ChangeMsg{T: now, ID: self}
}

// receive processes <change, t, id>; it reports whether the message was
// fresh (t beyond lastChange), in which case the queue was updated.
func (s *changeService) receive(m ChangeMsg) bool {
	if m.T <= s.lastChange {
		return false
	}
	s.lastChange = m.T
	s.queue = &ChangeMsg{T: m.T, ID: m.ID}
	return true
}

// pop returns the current queue entry without clearing it: the newest
// change is re-broadcast until superseded. The returned message is never
// mutated in place (receive and onChange replace it wholesale), so the
// shared pointer is safe on every substrate.
func (s *changeService) pop() *ChangeMsg {
	return s.queue
}

// treeService implements Algorithm 4 (tree building): for every root id
// seen, maintain the best known distance and the parent realizing it,
// Bellman-Ford style. The pending queue keeps at most one search message
// per root (the lowest hop count seen), with the current leader's message
// kept at the front; once the pending queue drains, the service keeps
// re-advertising its best known distance per root, cycling round-robin —
// so a node that lost its parent re-learns a route from any live
// neighbor's retransmissions after a purge.
type treeService struct {
	self amac.NodeID
	// tbl holds one entry per root heard of: a delivery that improves
	// nothing costs a single find.
	tbl idTable[treeEnt]
	// roots is the sorted list of known roots, cycled by pop when the
	// pending queue is empty.
	roots    []amac.NodeID
	rootsCur int
	// queue[qhead:] is the pending queue: the roots whose latest
	// improvement has not been broadcast yet, at most once each
	// (treeEnt.queued marks which), in FIFO order except that the current
	// leader is pinned to the front. A root stands for the message
	// <search, root, dist+1>: a second improvement before the first went
	// out dominates it (Algorithm 4 discards the larger hop count), so
	// the pending message is always the one the table describes at pop
	// time. pop advances qhead and updateQ compacts before the slice
	// would grow, so the backing array is reused.
	//
	// Invariant: if the current leader is pending it is at the head.
	// Every change of the leader estimate goes through prioritize, other
	// roots are only ever appended behind it, and pop removes the head —
	// so updateQ has to re-pin only when the root it enqueued is the
	// leader.
	queue []amac.NodeID
	qhead int
}

// treeEnt is what a node knows about one root. Hop counts are path
// lengths, below n, so 32 bits hold them.
type treeEnt struct {
	parent amac.NodeID
	dist   int32
	queued bool // a search message for this root is pending
}

func (s *treeService) init(self amac.NodeID) {
	s.self = self
	*s.tbl.insert(self) = treeEnt{parent: self, queued: true}
	s.roots = []amac.NodeID{self}
	s.queue = []amac.NodeID{self}
}

// distTo returns the best known distance to root, or -1 when unknown
// (the paper's infinity).
func (s *treeService) distTo(root amac.NodeID) int64 {
	if e := s.tbl.find(root); e != nil {
		return int64(e.dist)
	}
	return -1
}

// parentTo returns the parent toward root, or amac.NoID when unknown.
func (s *treeService) parentTo(root amac.NodeID) amac.NodeID {
	if e := s.tbl.find(root); e != nil {
		return e.parent
	}
	return amac.NoID
}

// receive processes <search, root, h> from sender; it reports whether the
// distance estimate improved (h < dist[root]). leader is the caller's
// current leader estimate, which must have been announced through
// prioritize when it last changed.
func (s *treeService) receive(m SearchMsg, leader amac.NodeID) bool {
	e := s.tbl.find(m.Root)
	if e != nil && m.Hops >= int64(e.dist) {
		return false
	}
	if m.Hops != int64(int32(m.Hops)) {
		return false // not a path length; keeps dist's 32 bits honest
	}
	if e == nil {
		i := sort.Search(len(s.roots), func(k int) bool { return s.roots[k] >= m.Root })
		s.roots = append(s.roots, 0)
		copy(s.roots[i+1:], s.roots[i:])
		s.roots[i] = m.Root
		e = s.tbl.insert(m.Root)
	}
	e.dist = int32(m.Hops)
	e.parent = m.Sender
	s.updateQ(e, m.Root, leader)
	return true
}

// updateQ makes root, whose entry is e, pending behind everything already
// queued — discarding its earlier, dominated message if that is still
// pending — and pins the leader to the front (Algorithm 4's UpdateQ).
func (s *treeService) updateQ(e *treeEnt, root, leader amac.NodeID) {
	if e.queued {
		q := s.queue[s.qhead:]
		for i := range q {
			if q[i] == root {
				copy(q[i:], q[i+1:])
				s.queue = s.queue[:len(s.queue)-1]
				break
			}
		}
	}
	e.queued = true
	if len(s.queue) == cap(s.queue) && s.qhead > 0 {
		s.queue = s.queue[:copy(s.queue, s.queue[s.qhead:])]
		s.qhead = 0
	}
	s.queue = append(s.queue, root)
	if root == leader {
		s.prioritize(leader)
	}
}

// prioritize moves the current leader (if pending) to the front; called
// when the leader is enqueued and when the leader estimate changes
// (Algorithm 4's OnLeaderChange).
func (s *treeService) prioritize(leader amac.NodeID) {
	q := s.queue[s.qhead:]
	for i := range q {
		if q[i] == leader {
			copy(q[1:i+1], q[:i])
			q[0] = leader
			return
		}
	}
}

// pop yields one message for the broadcast service: the next pending
// improvement when there is one, otherwise the sticky retransmission of
// the best known distance to the next root in the cycle. It reports
// false only before init.
func (s *treeService) pop() (SearchMsg, bool) {
	var root amac.NodeID
	switch {
	case s.qhead < len(s.queue):
		root = s.queue[s.qhead]
		s.qhead++
		if s.qhead == len(s.queue) {
			s.queue, s.qhead = s.queue[:0], 0
		}
	case len(s.roots) == 0:
		return SearchMsg{}, false
	default:
		if s.rootsCur >= len(s.roots) {
			s.rootsCur = 0
		}
		root = s.roots[s.rootsCur]
		s.rootsCur++
	}
	e := s.tbl.find(root)
	e.queued = false // already so in the idle cycle: it runs only with nothing pending
	return SearchMsg{Root: root, Hops: int64(e.dist) + 1, Sender: s.self}, true
}
