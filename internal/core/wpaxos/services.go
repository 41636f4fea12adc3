package wpaxos

import (
	"slices"

	"github.com/absmac/absmac/internal/amac"
)

// This file implements the tree service of Figure 3, whose queue the
// broadcast service (node.go) drains. Leader election and change notices
// are internal/omega's.

// treeService implements Algorithm 4 (tree building), Bellman-Ford style,
// for the roots the node asks it to keep: the node itself and every root
// that can still be its leader estimate. Responses are only ever routed up
// the tree of the current Ω (popResp; queue invariant (1) of Section
// 4.2.1), and without a suspicion Ω only rises, so the node (onSearch)
// never hands over a search for a root below Ω or for a suspected one, and
// purge drops the roots an Ω rise has overtaken. The pending queue keeps at
// most one search message per root (the lowest hop count seen), with the
// current leader's message kept at the front, and over reliable edges that
// flood alone reaches every neighbor. What the flood cannot do is tell a
// node about a tree it refused to track: after a suspicion the new Ω is a
// root everyone ignored while the old one stood. So once the node's own
// detector has fired, pop turns the drained queue into anti-entropy — it
// re-advertises the best known distance per tracked root, self included,
// cycling round-robin — and a node that demotes later re-learns the
// successor's tree from any fired neighbor's retransmissions. Before a
// suspicion the cycle stays off: it would re-offer the leader's tree on
// every other broadcast, lossy overlay edges would keep handing nodes
// shorter-but-lossy parents late, and each adoption is a change event
// that restarts the proposal.
type treeService struct {
	self amac.NodeID
	// ents holds one entry per tracked root, sorted by root: a handful
	// (self, Ω, and roots heard of before the detector learned them), so
	// a lookup is a short scan. It is also the idle cycle, at cursor cur.
	ents []treeEnt
	cur  int
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
	root, parent amac.NodeID
	dist         int32
	queued       bool // a search message for this root is pending
}

func (s *treeService) init(self amac.NodeID) {
	s.self = self
	s.ents = append(s.ents[:0], treeEnt{root: self, parent: self, queued: true})
	s.queue = append(s.queue[:0], self)
}

// find returns root's entry, or nil with the position it would take.
func (s *treeService) find(root amac.NodeID) (*treeEnt, int) {
	for i := range s.ents {
		if e := &s.ents[i]; e.root >= root {
			if e.root == root {
				return e, i
			}
			return nil, i
		}
	}
	return nil, len(s.ents)
}

// distTo returns the best known distance to root, or -1 when unknown
// (the paper's infinity).
func (s *treeService) distTo(root amac.NodeID) int64 {
	if e, _ := s.find(root); e != nil {
		return int64(e.dist)
	}
	return -1
}

// parentTo returns the parent toward root, or amac.NoID when unknown.
func (s *treeService) parentTo(root amac.NodeID) amac.NodeID {
	if e, _ := s.find(root); e != nil {
		return e.parent
	}
	return amac.NoID
}

// receive processes <search, root, h> from sender; it reports whether the
// distance estimate improved (h < dist[root]). leader is the caller's
// current leader estimate, which must have been announced through
// prioritize when it last changed.
func (s *treeService) receive(m SearchMsg, leader amac.NodeID) bool {
	e, i := s.find(m.Root)
	if e != nil && m.Hops >= int64(e.dist) {
		return false
	}
	if m.Hops != int64(int32(m.Hops)) {
		return false // not a path length; keeps dist's 32 bits honest
	}
	if e == nil {
		s.ents = append(s.ents, treeEnt{})
		copy(s.ents[i+1:], s.ents[i:])
		e = &s.ents[i]
		*e = treeEnt{root: m.Root}
	}
	e.dist = int32(m.Hops)
	e.parent = m.Sender
	s.updateQ(e, leader)
	return true
}

// purge stops tracking every root below omega other than the node itself:
// they leave the table, the idle cycle and the pending queue. The node
// calls it whenever its leader estimate moves, which keeps the invariant
// that every tracked root but self is at least Ω.
func (s *treeService) purge(omega amac.NodeID) {
	stale := func(root amac.NodeID) bool { return root < omega && root != s.self }
	s.ents = slices.DeleteFunc(s.ents, func(e treeEnt) bool { return stale(e.root) })
	s.queue = s.queue[:s.qhead+len(slices.DeleteFunc(s.queue[s.qhead:], stale))]
}

// updateQ makes e's root pending behind everything already queued —
// discarding its earlier, dominated message if that is still pending —
// and pins the leader to the front (Algorithm 4's UpdateQ).
func (s *treeService) updateQ(e *treeEnt, leader amac.NodeID) {
	if e.queued {
		q := s.queue[s.qhead:]
		for i := range q {
			if q[i] == e.root {
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
	s.queue = append(s.queue, e.root)
	if e.root == leader {
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
// improvement when there is one; otherwise, when cycle is set (the node's
// detector has fired), the anti-entropy retransmission of the best known
// distance to the next tracked root; otherwise nothing.
func (s *treeService) pop(cycle bool) (SearchMsg, bool) {
	var e *treeEnt
	switch {
	case s.qhead < len(s.queue):
		e, _ = s.find(s.queue[s.qhead])
		s.qhead++
		if s.qhead == len(s.queue) {
			s.queue, s.qhead = s.queue[:0], 0
		}
		e.queued = false
	case !cycle:
		return SearchMsg{}, false
	default:
		if s.cur >= len(s.ents) {
			s.cur = 0
		}
		e = &s.ents[s.cur]
		s.cur++
	}
	return SearchMsg{Root: e.root, Hops: int64(e.dist) + 1, Sender: s.self}, true
}
