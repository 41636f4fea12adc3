package wpaxos

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/omega"
)

func TestProposalNumOrdering(t *testing.T) {
	cases := []struct {
		a, b ProposalNum
		less bool
	}{
		{ProposalNum{1, 1}, ProposalNum{2, 1}, true},
		{ProposalNum{2, 1}, ProposalNum{1, 9}, false},
		{ProposalNum{1, 1}, ProposalNum{1, 2}, true},
		{ProposalNum{1, 2}, ProposalNum{1, 2}, false},
		{ProposalNum{}, ProposalNum{1, 1}, true},
	}
	for _, tc := range cases {
		if got := tc.a.Less(tc.b); got != tc.less {
			t.Errorf("%v < %v = %v, want %v", tc.a, tc.b, got, tc.less)
		}
	}
	if m := (ProposalNum{1, 3}).Max(ProposalNum{1, 5}); m != (ProposalNum{1, 5}) {
		t.Errorf("Max = %v", m)
	}
	if !(ProposalNum{}).IsZero() || (ProposalNum{1, 0}).IsZero() {
		t.Error("IsZero misbehaves")
	}
}

func TestMaxPrev(t *testing.T) {
	a := &Proposal{Num: ProposalNum{1, 1}, Val: 0}
	b := &Proposal{Num: ProposalNum{2, 1}, Val: 1}
	if maxPrev(nil, nil) != nil {
		t.Error("maxPrev(nil,nil) != nil")
	}
	if maxPrev(a, nil) != a || maxPrev(nil, b) != b {
		t.Error("maxPrev with one nil")
	}
	if maxPrev(a, b) != b || maxPrev(b, a) != b {
		t.Error("maxPrev picks wrong proposal")
	}
}

func TestTreeServiceBasics(t *testing.T) {
	var s treeService
	s.init(1)
	if s.distTo(1) != 0 || s.parentTo(1) != 1 {
		t.Fatal("self root not initialized")
	}
	if s.distTo(99) != -1 || s.parentTo(99) != amac.NoID {
		t.Fatal("unknown root should be infinite")
	}
	// Adopt a search for root 7 at 3 hops.
	if !s.receive(SearchMsg{Root: 7, Hops: 3, Sender: 4}, 7) {
		t.Fatal("fresh search rejected")
	}
	if s.distTo(7) != 3 || s.parentTo(7) != 4 {
		t.Fatalf("dist=%d parent=%d", s.distTo(7), s.parentTo(7))
	}
	// Worse estimate rejected, better adopted.
	if s.receive(SearchMsg{Root: 7, Hops: 5, Sender: 9}, 7) {
		t.Fatal("worse search accepted")
	}
	if !s.receive(SearchMsg{Root: 7, Hops: 1, Sender: 2}, 7) {
		t.Fatal("better search rejected")
	}
	if s.distTo(7) != 1 || s.parentTo(7) != 2 {
		t.Fatalf("after improvement: dist=%d parent=%d", s.distTo(7), s.parentTo(7))
	}
	// A search about the node itself never improves dist 0.
	if s.receive(SearchMsg{Root: 1, Hops: 2, Sender: 3}, 7) {
		t.Fatal("self-root search accepted")
	}
}

func TestTreeQueueReplacesDominated(t *testing.T) {
	var s treeService
	s.init(1)
	s.pop(false) // drain own search
	s.receive(SearchMsg{Root: 7, Hops: 3, Sender: 4}, 0)
	s.receive(SearchMsg{Root: 7, Hops: 1, Sender: 2}, 0)
	// Only one pending message for root 7 remains, the improved relay
	// (hops 2).
	m, ok := s.pop(false)
	if !ok || m.Root != 7 || m.Hops != 2 {
		t.Fatalf("queued message %+v, want root 7 hops 2", m)
	}
	// With the pending queue drained, a node whose detector has not fired
	// says nothing more about trees.
	for i := 0; i < 3; i++ {
		if m, ok = s.pop(false); ok {
			t.Fatalf("idle pop before any suspicion yielded %+v", m)
		}
	}
	// Once it has, pop is anti-entropy: it re-advertises the best known
	// distance per tracked root, cycling (roots sorted: 1, 7).
	if m, ok = s.pop(true); !ok || m.Root != 1 || m.Hops != 1 {
		t.Fatalf("cycle pop %+v, want root 1 hops 1", m)
	}
	if m, ok = s.pop(true); !ok || m.Root != 7 || m.Hops != 2 {
		t.Fatalf("cycle pop %+v, want root 7 hops 2", m)
	}
	if m, ok = s.pop(true); !ok || m.Root != 1 {
		t.Fatalf("cycle pop %+v, want wrap to root 1", m)
	}
	// A pending improvement still goes first.
	s.receive(SearchMsg{Root: 9, Hops: 4, Sender: 2}, 0)
	if m, ok = s.pop(true); !ok || m.Root != 9 || m.Hops != 5 {
		t.Fatalf("pop %+v, want the pending root 9 hops 5", m)
	}
}

// TestTreePurgeForgetsOvertakenRoots: an Ω rise empties table, cycle and
// pending queue of the roots below it, and keeps the node itself.
func TestTreePurgeForgetsOvertakenRoots(t *testing.T) {
	var s treeService
	s.init(5)
	for _, root := range []amac.NodeID{2, 7, 3, 9, 8} {
		s.receive(SearchMsg{Root: root, Hops: 2, Sender: 4}, 5)
	}
	s.pop(false) // self
	s.pop(false) // root 2: tracked, no longer pending
	s.purge(8)
	var roots []amac.NodeID
	for _, e := range s.ents {
		roots = append(roots, e.root)
	}
	if !slices.Equal(roots, []amac.NodeID{5, 8, 9}) {
		t.Fatalf("tracked after purge(8): %v, want [5 8 9]", roots)
	}
	if q := s.queue[s.qhead:]; !slices.Equal(q, []amac.NodeID{9, 8}) {
		t.Fatalf("pending after purge(8): %v, want [9 8]", q)
	}
	for _, root := range []amac.NodeID{2, 3, 7} {
		if s.distTo(root) != -1 || s.parentTo(root) != amac.NoID {
			t.Fatalf("root %d survived the purge", root)
		}
	}
	if s.distTo(5) != 0 || s.parentTo(5) != 5 {
		t.Fatal("the node's own root was purged")
	}
	// Drained and fired, the cycle runs over what is left.
	s.pop(false)
	s.pop(false)
	for _, want := range []amac.NodeID{5, 8, 9, 5} {
		if m, ok := s.pop(true); !ok || m.Root != want {
			t.Fatalf("cycle pop %+v, want root %d", m, want)
		}
	}
}

func TestTreeQueueLeaderPriority(t *testing.T) {
	var s treeService
	s.init(1)
	s.pop(false)
	s.receive(SearchMsg{Root: 5, Hops: 2, Sender: 4}, 9)
	s.receive(SearchMsg{Root: 6, Hops: 2, Sender: 4}, 9)
	s.receive(SearchMsg{Root: 9, Hops: 2, Sender: 4}, 9) // the leader's
	// The leader's message must pop first despite arriving last.
	if m, ok := s.pop(false); !ok || m.Root != 9 {
		t.Fatalf("first pop %+v, want leader root 9", m)
	}
	// FIFO order among the rest.
	if m, ok := s.pop(false); !ok || m.Root != 5 {
		t.Fatalf("second pop %+v, want root 5", m)
	}
	if m, ok := s.pop(false); !ok || m.Root != 6 {
		t.Fatalf("third pop %+v, want root 6", m)
	}
}

func TestTreeQueueReprioritizeOnLeaderChange(t *testing.T) {
	var s treeService
	s.init(1)
	s.pop(false)
	s.receive(SearchMsg{Root: 5, Hops: 2, Sender: 4}, 5)
	s.receive(SearchMsg{Root: 8, Hops: 2, Sender: 4}, 5)
	s.prioritize(8) // leader changed to 8
	if m, ok := s.pop(false); !ok || m.Root != 8 {
		t.Fatalf("pop %+v, want new leader root 8", m)
	}
}

func TestAcceptorPrepare(t *testing.T) {
	var a acceptorState
	pos, prev, committed := a.handlePrepare(ProposalNum{1, 3})
	if !pos || prev != nil || !committed.IsZero() {
		t.Fatalf("first prepare: %v %v %v", pos, prev, committed)
	}
	// A smaller prepare is rejected with the committed number.
	pos, _, committed = a.handlePrepare(ProposalNum{1, 2})
	if pos || committed != (ProposalNum{1, 3}) {
		t.Fatalf("smaller prepare: %v %v", pos, committed)
	}
	// Re-sending the same number is also rejected (not strictly larger).
	pos, _, _ = a.handlePrepare(ProposalNum{1, 3})
	if pos {
		t.Fatal("equal prepare accepted")
	}
}

func TestAcceptorProposeAndPrev(t *testing.T) {
	var a acceptorState
	a.handlePrepare(ProposalNum{1, 3})
	pos, committed := a.handlePropose(ProposalNum{1, 3}, 1)
	if !pos || !committed.IsZero() {
		t.Fatalf("propose at promised number: %v %v", pos, committed)
	}
	// A later prepare reports the accepted proposal.
	pos, prev, _ := a.handlePrepare(ProposalNum{2, 2})
	if !pos || prev == nil || prev.Num != (ProposalNum{1, 3}) || prev.Val != 1 {
		t.Fatalf("prepare after accept: %v %+v", pos, prev)
	}
	// A propose below the promise is rejected.
	pos, committed = a.handlePropose(ProposalNum{1, 9}, 0)
	if pos || committed != (ProposalNum{2, 2}) {
		t.Fatalf("stale propose: %v %v", pos, committed)
	}
}

func TestCountAudit(t *testing.T) {
	a := NewCountAudit()
	p := Proposition{Kind: Prepare, Num: ProposalNum{1, 2}}
	a.addGenerated(p)
	a.addGenerated(p)
	a.addCounted(p, 2)
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("balanced audit flagged: %v", v)
	}
	a.addCounted(p, 1)
	if v := a.Violations(); len(v) != 1 || v[0] != p {
		t.Fatalf("overcount not flagged: %v", v)
	}
	if a.Propositions() != 1 {
		t.Fatalf("propositions = %d", a.Propositions())
	}
	// A nil audit is a no-op everywhere.
	var nilAudit *CountAudit
	nilAudit.addGenerated(p)
	nilAudit.addCounted(p, 1)
}

func TestCombinedIDCount(t *testing.T) {
	var c Combined
	if c.IDCount() != 0 {
		t.Fatalf("empty combined counts %d ids", c.IDCount())
	}
	full := Combined{
		Leader:   &omega.LeaderMsg{ID: 1},
		Change:   &omega.ChangeMsg{T: 1, ID: 2},
		Search:   &SearchMsg{Root: 3, Hops: 1, Sender: 4},
		Proposer: &ProposerMsg{Kind: Prepare, Num: ProposalNum{1, 5}},
		Response: &ResponseMsg{
			Dest: 6, Prop: Proposition{Kind: Prepare, Num: ProposalNum{1, 5}},
			Prev:      &Proposal{Num: ProposalNum{1, 2}, Val: 1},
			Committed: ProposalNum{2, 2},
		},
		Relay: &RelayMsg{
			Prop:     Proposition{Kind: Prepare, Num: ProposalNum{1, 5}},
			Prev:     &Proposal{Num: ProposalNum{1, 2}, Val: 1},
			Acceptor: 7,
		},
		Decide: &DecideMsg{Val: 1},
	}
	if got := full.IDCount(); got != amac.MaxMessageIDs {
		t.Fatalf("full combined counts %d ids, want the documented max %d", got, amac.MaxMessageIDs)
	}
}

func TestKindStrings(t *testing.T) {
	if Prepare.String() != "prepare" || Propose.String() != "propose" {
		t.Fatal("PropKind strings")
	}
	if PropKind(9).String() != "PropKind(9)" {
		t.Fatal("unknown PropKind string")
	}
	p := Proposition{Kind: Propose, Num: ProposalNum{3, 4}}
	if p.String() != "propose(3,4)" {
		t.Fatalf("proposition string %q", p.String())
	}
}

func TestProposalNumTotalOrderProperty(t *testing.T) {
	// Less must be a strict total order: irreflexive, antisymmetric,
	// transitive, and total; Max must pick the Less-larger operand.
	gen := func(a, b int8, c, d int16) (ProposalNum, ProposalNum) {
		return ProposalNum{Tag: int64(a), ID: amac.NodeID(c)},
			ProposalNum{Tag: int64(b), ID: amac.NodeID(d)}
	}
	f := func(a, b int8, c, d int16) bool {
		p, q := gen(a, b, c, d)
		if p.Less(p) || q.Less(q) {
			return false
		}
		if p == q {
			return !p.Less(q) && !q.Less(p)
		}
		if p.Less(q) == q.Less(p) {
			return false // exactly one must hold for distinct values
		}
		m := p.Max(q)
		if p.Less(q) {
			return m == q
		}
		return m == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestProposalNumTransitivityProperty(t *testing.T) {
	f := func(t1, t2, t3 int8, i1, i2, i3 int16) bool {
		a := ProposalNum{Tag: int64(t1), ID: amac.NodeID(i1)}
		b := ProposalNum{Tag: int64(t2), ID: amac.NodeID(i2)}
		c := ProposalNum{Tag: int64(t3), ID: amac.NodeID(i3)}
		if a.Less(b) && b.Less(c) && !a.Less(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
