package wpaxos

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/absmac/absmac/internal/amac"
)

// oracleTreeService is the map-based tree service this package shipped
// first, kept as the reference the compact one is compared against. It
// implements Algorithm 4 (tree building): for every root id handed to it,
// maintain the best known distance and the parent realizing it,
// Bellman-Ford style. The pending queue keeps at most one search message
// per root (the lowest hop count seen), with the current leader's message
// kept at the front; once the pending queue drains, the service
// re-advertises its best known distance per root, cycling round-robin.
// Two things were added when the production service learned to forget:
// purge, written here the obvious way over the maps, and pop's cycle
// gate. Everything else is verbatim.
type oracleTreeService struct {
	self   amac.NodeID
	dist   map[amac.NodeID]int64
	parent map[amac.NodeID]amac.NodeID
	// roots is the sorted list of known roots, cycled by pop when the
	// pending queue is empty.
	roots    []amac.NodeID
	rootsCur int
	// queue preserves FIFO order except that the current leader's entry
	// is pinned to the front; it holds the not-yet-broadcast improvements
	// (one entry per root with pending propagation).
	queue []SearchMsg
}

func (s *oracleTreeService) init(self amac.NodeID) {
	s.self = self
	s.dist = map[amac.NodeID]int64{self: 0}
	s.parent = map[amac.NodeID]amac.NodeID{self: self}
	s.roots = []amac.NodeID{self}
	s.queue = []SearchMsg{{Root: self, Hops: 1, Sender: self}}
}

// distTo returns the best known distance to root, or -1 when unknown
// (the paper's infinity).
func (s *oracleTreeService) distTo(root amac.NodeID) int64 {
	d, ok := s.dist[root]
	if !ok {
		return -1
	}
	return d
}

// parentTo returns the parent toward root, or amac.NoID when unknown.
func (s *oracleTreeService) parentTo(root amac.NodeID) amac.NodeID {
	p, ok := s.parent[root]
	if !ok {
		return amac.NoID
	}
	return p
}

// receive processes <search, root, h> from sender; it reports whether the
// distance estimate improved (h < dist[root]).
func (s *oracleTreeService) receive(m SearchMsg, leader amac.NodeID) bool {
	cur, known := s.dist[m.Root]
	if known && m.Hops >= cur {
		return false
	}
	if !known {
		i := sort.Search(len(s.roots), func(k int) bool { return s.roots[k] >= m.Root })
		s.roots = append(s.roots, 0)
		copy(s.roots[i+1:], s.roots[i:])
		s.roots[i] = m.Root
	}
	s.dist[m.Root] = m.Hops
	s.parent[m.Root] = m.Sender
	s.updateQ(SearchMsg{Root: m.Root, Hops: m.Hops + 1, Sender: s.self}, leader)
	return true
}

// updateQ enqueues a search message, discards any queued message for the
// same root with a larger hop count, and pins the leader's message to the
// front (Algorithm 4's UpdateQ).
func (s *oracleTreeService) updateQ(m SearchMsg, leader amac.NodeID) {
	kept := s.queue[:0]
	for _, q := range s.queue {
		if q.Root == m.Root {
			if q.Hops <= m.Hops {
				// The queued message dominates; drop the new one.
				m = q
			}
			continue // the dominated copy is discarded
		}
		kept = append(kept, q)
	}
	s.queue = append(kept, m)
	s.prioritize(leader)
}

// prioritize moves the current leader's search message (if any) to the
// front; called on enqueue and when the leader estimate changes
// (Algorithm 4's OnLeaderChange).
func (s *oracleTreeService) prioritize(leader amac.NodeID) {
	for i, q := range s.queue {
		if q.Root == leader && i > 0 {
			m := s.queue[i]
			copy(s.queue[1:i+1], s.queue[:i])
			s.queue[0] = m
			return
		}
	}
}

// purge forgets every root below omega other than self.
func (s *oracleTreeService) purge(omega amac.NodeID) {
	stale := func(root amac.NodeID) bool { return root < omega && root != s.self }
	s.roots = slices.DeleteFunc(s.roots, stale)
	s.queue = slices.DeleteFunc(s.queue, func(m SearchMsg) bool { return stale(m.Root) })
	for root := range s.dist {
		if stale(root) {
			delete(s.dist, root)
			delete(s.parent, root)
		}
	}
}

// pop yields one message for the broadcast service: the next pending
// improvement when there is one, otherwise — when cycle is set — the
// sticky retransmission of the best known distance to the next root in
// the cycle.
func (s *oracleTreeService) pop(cycle bool) (SearchMsg, bool) {
	if len(s.queue) > 0 {
		m := s.queue[0]
		s.queue = s.queue[1:]
		return m, true
	}
	if !cycle {
		return SearchMsg{}, false
	}
	if s.rootsCur >= len(s.roots) {
		s.rootsCur = 0
	}
	root := s.roots[s.rootsCur]
	s.rootsCur++
	return SearchMsg{Root: root, Hops: s.dist[root] + 1, Sender: s.self}, true
}

// treeIDUniverses are the id assignments the differential test draws roots
// and senders from: the simulator's dense default, sparse ids far above
// any n, a mix of both, and the extremes of the id type.
type idUniverse struct {
	name string
	ids  []amac.NodeID
}

func treeIDUniverses(rng *rand.Rand) []idUniverse {
	dense := make([]amac.NodeID, 48)
	sparse := make([]amac.NodeID, 48)
	for i := range dense {
		dense[i] = amac.NodeID(i + 1)
		sparse[i] = amac.NodeID(1_000_000_000 + 17*i)
	}
	rng.Shuffle(len(sparse), func(i, j int) { sparse[i], sparse[j] = sparse[j], sparse[i] })
	mixed := append(append([]amac.NodeID{}, dense[:16]...), sparse[:16]...)
	mixed = append(mixed, 0, 63, 64, 4096, 1<<40)
	extreme := []amac.NodeID{0, 1, 2, 3, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1, -2, -7, 1 << 62}
	return []idUniverse{{"dense", dense}, {"sparse", sparse}, {"mixed", mixed}, {"extreme", extreme}}
}

// TestTreeServiceMatchesMapOracle drives the compact tree service and the
// map-based oracle with the same seeded stream of receive / purge /
// prioritize / pop calls, the way a node does — the pin passed to receive
// is the current leader estimate, every change of it is announced through
// purge and then prioritize, and the idle cycle is off until the driver
// "fires" partway through — and requires identical return values, pop
// sequences, distances, parents, tracked roots and pending queues after
// every call, plus the head-of-queue invariant the incremental updateQ
// rests on. The stream is wider than a node's: receive is handed roots
// below the leader too, so purge always has something to drop.
func TestTreeServiceMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, u := range treeIDUniverses(rng) {
			driveTreePair(t, u.name, u.ids, rng)
		}
	}
}

func driveTreePair(t *testing.T, name string, ids []amac.NodeID, rng *rand.Rand) {
	t.Helper()
	self := ids[rng.Intn(len(ids))]
	var got treeService
	var want oracleTreeService
	got.init(self)
	want.init(self)
	leader := self // a fresh detector elects its own node
	pick := func() amac.NodeID { return ids[rng.Intn(len(ids))] }

	check := func(step int, op string) {
		t.Helper()
		for _, id := range ids {
			if g, w := got.distTo(id), want.distTo(id); g != w {
				t.Fatalf("%s step %d (%s): distTo(%d) = %d, oracle %d", name, step, op, id, g, w)
			}
			if g, w := got.parentTo(id), want.parentTo(id); g != w {
				t.Fatalf("%s step %d (%s): parentTo(%d) = %d, oracle %d", name, step, op, id, g, w)
			}
		}
		if g, w := got.distTo(amac.NoID), want.distTo(amac.NoID); g != w {
			t.Fatalf("%s step %d: distTo(NoID) = %d, oracle %d", name, step, g, w)
		}
		pending := got.queue[got.qhead:]
		if len(pending) != len(want.queue) {
			t.Fatalf("%s step %d (%s): %d pending, oracle %d", name, step, op, len(pending), len(want.queue))
		}
		for i, q := range want.queue {
			if pending[i] != q.Root || got.distTo(q.Root)+1 != q.Hops || q.Sender != self {
				t.Fatalf("%s step %d (%s): pending[%d] = root %d hops %d, oracle %+v",
					name, step, op, i, pending[i], got.distTo(pending[i])+1, q)
			}
		}
		if len(got.ents) != len(want.roots) {
			t.Fatalf("%s step %d (%s): %d tracked roots, oracle %v", name, step, op, len(got.ents), want.roots)
		}
		for i, e := range got.ents {
			if e.root != want.roots[i] {
				t.Fatalf("%s step %d (%s): ents[%d] is root %d, oracle's sorted roots %v", name, step, op, i, e.root, want.roots)
			}
			if e.queued != slices.Contains(pending, e.root) {
				t.Fatalf("%s step %d (%s): root %d queued flag %v disagrees with the queue", name, step, op, e.root, e.queued)
			}
		}
		// The invariant: the current leader's message, if pending, is at
		// the head — in the oracle too, or the claim about the old code
		// is wrong.
		for i := 1; i < len(pending); i++ {
			if pending[i] == leader || want.queue[i].Root == leader {
				t.Fatalf("%s step %d (%s): leader %d pending at position %d, not at the head", name, step, op, leader, i)
			}
		}
	}

	check(0, "init")
	purged, idle := false, false
	for step := 1; step <= 1500; step++ {
		// Alternate phases that fill the pending queue with phases that
		// drain it into the idle round-robin.
		fill := (step/150)%2 == 0
		var op string
		switch r := rng.Intn(20); {
		case r < 1:
			op = "leader change"
			leader = pick()
			got.purge(leader)
			want.purge(leader)
			purged = true
			got.prioritize(leader)
			want.prioritize(leader)
		case (fill && r < 16) || (!fill && r < 6):
			op = "receive"
			m := SearchMsg{Root: pick(), Hops: int64(1 + rng.Intn(14)), Sender: pick()}
			if g, w := got.receive(m, leader), want.receive(m, leader); g != w {
				t.Fatalf("%s step %d: receive(%+v) = %v, oracle %v", name, step, m, g, w)
			}
		default:
			op = "pop"
			cycle := step > 600 // the detector fires partway through
			gm, gok := got.pop(cycle)
			wm, wok := want.pop(cycle)
			idle = idle || (!cycle && !gok)
			if gm != wm || gok != wok {
				t.Fatalf("%s step %d: pop = %+v %v, oracle %+v %v", name, step, gm, gok, wm, wok)
			}
		}
		check(step, op)
	}
	if !purged || !idle {
		t.Fatalf("%s: the stream never purged (%v) or never popped an idle, unfired service (%v)", name, purged, idle)
	}
	if cap(got.queue) > 2*len(ids) {
		t.Fatalf("%s: pending queue backing array grew to %d for %d roots", name, cap(got.queue), len(ids))
	}
}

// TestTreeServiceRejectsNonPathLengths: dist holds 32 bits; a hop count
// outside them is not a path length and must not be adopted, truncated.
func TestTreeServiceRejectsNonPathLengths(t *testing.T) {
	var s treeService
	s.init(1)
	if s.receive(SearchMsg{Root: 7, Hops: 1 << 40, Sender: 2}, 1) || s.distTo(7) != -1 {
		t.Fatal("a 2^40-hop search was adopted")
	}
	if !s.receive(SearchMsg{Root: 7, Hops: math.MaxInt32, Sender: 2}, 1) || s.distTo(7) != math.MaxInt32 {
		t.Fatal("the largest representable hop count was rejected")
	}
}
