package wpaxos

import (
	"slices"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/omega"
	"github.com/absmac/absmac/internal/sim"
)

// These tests pin the three rules that bound a node's working set (the
// package comment, "Per-node state and the n² budget") at the node's
// handlers; the tree service's own half is in services_test.go and the
// differential test.

// startedNode returns node `id` of a network of n, started on a substrate
// that never acks — so it stays in flight and its queues keep what the
// handlers put there.
func startedNode(id amac.NodeID, n int) (*Node, *stubAPI) {
	api := &stubAPI{id: id, now: 10}
	nd := NewFactory(Config{N: n})(amac.NodeConfig{ID: id, Input: 1}).(*Node)
	nd.Start(api)
	return nd, api
}

func trackedRoots(nd *Node) []amac.NodeID {
	var roots []amac.NodeID
	for _, e := range nd.tree.ents {
		roots = append(roots, e.root)
	}
	return roots
}

func pendingRoots(nd *Node) []amac.NodeID {
	return slices.Clone(nd.tree.queue[nd.tree.qhead:])
}

// TestSearchForRootThatCannotLeadIsIgnored: a <search> for a root below Ω,
// or for a suspected root, changes nothing — no entry, no improvement, no
// pending relay — and is not novel information to the detector.
func TestSearchForRootThatCannotLeadIsIgnored(t *testing.T) {
	nd, api := startedNode(3, 5)
	nd.OnReceive(&Combined{Leader: &omega.LeaderMsg{ID: 9}, Search: &SearchMsg{Root: 9, Hops: 4, Sender: 2}})
	nd.OnReceive(&Combined{Leader: &omega.LeaderMsg{ID: 6}}) // a member below Ω
	if nd.det.Omega() != 9 || nd.tree.distTo(9) != 4 {
		t.Fatalf("leader %d at distance %d, want 9 at 4", nd.det.Omega(), nd.tree.distTo(9))
	}
	roots, pending, novel := trackedRoots(nd), pendingRoots(nd), nd.det.LastNovel()

	api.now = 20
	nd.OnReceive(&Combined{Search: &SearchMsg{Root: 6, Hops: 1, Sender: 6}})
	if got := trackedRoots(nd); !slices.Equal(got, roots) || nd.tree.distTo(6) != -1 {
		t.Fatalf("a search for root 6 < Ω = 9 was tracked: roots %v", got)
	}
	if got := pendingRoots(nd); !slices.Equal(got, pending) {
		t.Fatalf("a search for a root below Ω is pending relay: %v, was %v", got, pending)
	}
	if nd.det.LastNovel() != novel {
		t.Fatal("a search for a root below Ω reset the silence window")
	}

	// Silence past the bound: the node suspects 9 and falls back to 6.
	api.now = 20 + nd.det.Bound() + 1
	nd.det.NoteSend(api.now) // the ack below is prompt: fhat stays put
	nd.OnAck(nil)
	if nd.det.Omega() != 6 || !nd.det.Suspects(9) {
		t.Fatalf("after the silence bound: leader %d, suspects(9)=%v", nd.det.Omega(), nd.det.Suspects(9))
	}
	novel = nd.det.LastNovel()
	api.now++
	nd.OnReceive(&Combined{Search: &SearchMsg{Root: 9, Hops: 1, Sender: 4}})
	if nd.tree.distTo(9) != 4 || nd.tree.parentTo(9) != 2 {
		t.Fatalf("a search for suspected root 9 was adopted: dist %d parent %d", nd.tree.distTo(9), nd.tree.parentTo(9))
	}
	if nd.det.LastNovel() != novel {
		t.Fatal("a search for a suspected root reset the silence window")
	}
	// The successor's tree is now wanted, and the old one is kept for a
	// wrap to find.
	nd.OnReceive(&Combined{Search: &SearchMsg{Root: 6, Hops: 1, Sender: 6}})
	if nd.tree.distTo(nd.det.Omega()) != 1 || !slices.Equal(trackedRoots(nd), []amac.NodeID{3, 6, 9}) {
		t.Fatalf("after demotion: dist to leader %d, roots %v", nd.tree.distTo(nd.det.Omega()), trackedRoots(nd))
	}
}

// TestOmegaRiseForgetsLowerRoots: when the leader estimate rises, the roots
// below it leave the table, the idle cycle and the pending queue; the node
// itself and the roots above stay.
func TestOmegaRiseForgetsLowerRoots(t *testing.T) {
	nd, _ := startedNode(3, 5)
	for _, root := range []amac.NodeID{7, 4, 8} { // all above Ω = self
		nd.OnReceive(&Combined{Search: &SearchMsg{Root: root, Hops: 2, Sender: 2}})
	}
	if got := trackedRoots(nd); !slices.Equal(got, []amac.NodeID{3, 4, 7, 8}) {
		t.Fatalf("tracked %v, want [3 4 7 8]", got)
	}
	nd.OnReceive(&Combined{Leader: &omega.LeaderMsg{ID: 8}})
	if got := trackedRoots(nd); !slices.Equal(got, []amac.NodeID{3, 8}) {
		t.Fatalf("tracked after Ω rose to 8: %v, want [3 8]", got)
	}
	if got := pendingRoots(nd); !slices.Equal(got, []amac.NodeID{8}) {
		t.Fatalf("pending after Ω rose to 8: %v, want the leader alone (self went out at Start)", got)
	}
	if tr, _, _ := nd.WorkingSet(); tr != 2 {
		t.Fatalf("WorkingSet reports %d tree roots, want 2", tr)
	}
}

// stateOf returns the gossip table's entry for origin, or nil.
func stateOf(nd *Node, origin amac.NodeID) *StateMsg {
	if i, ok := nd.findState(origin); ok {
		return &nd.states[i]
	}
	return nil
}

// chosenBy returns the origins the chosen-value watch has seen accepting
// num.
func chosenBy(nd *Node, num ProposalNum) omega.IDSet {
	for _, t := range nd.chosen {
		if t.num == num {
			return t.by
		}
	}
	return nil
}

// gossiped returns the origins one full turn of the state gossip cycle
// offers.
func gossiped(nd *Node) []amac.NodeID {
	var origins []amac.NodeID
	for range nd.states {
		st, _ := nd.popState()
		origins = append(origins, st.Origin)
	}
	slices.Sort(origins)
	return origins
}

// TestStateGossipKeepsOnlyWhatCanBeCounted: another origin's bare promise
// below the highest proposition number seen is neither stored nor relayed,
// nor is it novel; an acceptance always is; a rise of that number drops the
// entries it overtook; and the node's own acceptor state is never dropped.
func TestStateGossipKeepsOnlyWhatCanBeCounted(t *testing.T) {
	nd, api := startedNode(3, 7)
	num := ProposalNum{Tag: 2, ID: 9}
	nd.OnReceive(&Combined{Proposer: &ProposerMsg{Kind: Prepare, Num: num}})
	if own := stateOf(nd, 3); own == nil || own.Promised != num {
		t.Fatalf("own acceptor state not published: %+v", own)
	}
	novel := nd.det.LastNovel()
	api.now = 20

	nd.OnReceive(&Combined{State: &StateMsg{Origin: 4, Promised: ProposalNum{Tag: 1, ID: 4}}})
	if stateOf(nd, 4) != nil || nd.det.LastNovel() != novel {
		t.Fatal("a bare promise below the highest number seen was stored or counted as novel")
	}
	old := &Proposal{Num: ProposalNum{Tag: 1, ID: 5}, Val: 1}
	nd.OnReceive(&Combined{State: &StateMsg{Origin: 5, Promised: old.Num, Accepted: old}})
	nd.OnReceive(&Combined{State: &StateMsg{Origin: 6, Promised: num}})
	nd.OnReceive(&Combined{State: &StateMsg{Origin: 7, Promised: ProposalNum{Tag: 5, ID: 1}}})
	if got := gossiped(nd); !slices.Equal(got, []amac.NodeID{3, 5, 6, 7}) {
		t.Fatalf("gossip cycle offers origins %v, want [3 5 6 7]", got)
	}
	if len(chosenBy(nd, old.Num)) != 1 {
		t.Fatal("the chosen-value watch did not see origin 5's acceptance")
	}

	// A higher proposition: 6's promise can no longer be counted by
	// anyone, 5's acceptance and 7's higher promise still can.
	nd.OnReceive(&Combined{Proposer: &ProposerMsg{Kind: Prepare, Num: ProposalNum{Tag: 3, ID: 9}}})
	if got := gossiped(nd); !slices.Equal(got, []amac.NodeID{3, 5, 7}) {
		t.Fatalf("after the number rose: origins %v, want [3 5 7]", got)
	}
	if stateOf(nd, 6) != nil {
		t.Fatal("origin 6 is still in the table")
	}
	// The flood can run ahead of the local acceptor (enqueueProp comes
	// before respond): the node's own entry is exempt, whatever it says.
	nd.enqueueProp(ProposerMsg{Kind: Prepare, Num: ProposalNum{Tag: 9, ID: 9}})
	if got := gossiped(nd); !slices.Equal(got, []amac.NodeID{3, 5}) {
		t.Fatalf("after the flood ran ahead: origins %v, want [3 5]", got)
	}
	if own := stateOf(nd, 3); own == nil || own.Promised != (ProposalNum{Tag: 3, ID: 9}) {
		t.Fatalf("own acceptor state after the purge: %+v", own)
	}
	// Two prepares came through onProposer; the enqueueProp above did not.
	if _, so, sp := nd.WorkingSet(); so != 2 || sp != 2 {
		t.Fatalf("WorkingSet reports %d state origins and %d seen propositions, want 2 and 2", so, sp)
	}
}

// TestStateGossipCycleAndChosenTally pins the gossip table's two roles
// beyond lookup. The cycle: popState offers origins in ascending id order
// and wraps; a purge in mid-lap does not move the cursor, so the lap goes
// on strictly ascending over what is left (nothing is offered twice, an
// entry that slid below the cursor waits for the next lap), a cursor left
// past the end wraps, and the node's own entry outlives any purge. The
// tally: a proposer in its propose phase counts gossiped acceptances of its
// number through the chosen-value watch alone, and decides that value once.
//
// Every row is node 3. Unless it proposes, it first hears <prepare, (2,9)>,
// so its own acceptor state is in the table and (2,9) is the highest
// proposition number seen.
func TestStateGossipCycleAndChosenTally(t *testing.T) {
	heard := ProposalNum{Tag: 2, ID: 9}
	mine := ProposalNum{Tag: 1, ID: 3}
	promise := func(origin amac.NodeID, num ProposalNum) StateMsg {
		return StateMsg{Origin: origin, Promised: num}
	}
	accept := func(origin amac.NodeID, num ProposalNum) StateMsg {
		return StateMsg{Origin: origin, Promised: num, Accepted: &Proposal{Num: num, Val: 1}}
	}
	// With the node's own, five entries, merged out of order. Origins 2
	// and 6 hold bare promises a higher proposition overtakes; 4's
	// acceptance and 8's higher promise stay countable.
	five := []StateMsg{promise(8, ProposalNum{Tag: 5, ID: 1}), promise(2, heard), promise(6, heard), accept(4, ProposalNum{Tag: 1, ID: 4})}
	for _, tc := range []struct {
		name    string
		n       int
		propose bool        // the node starts its own proposal, (1,3), first
		merge   []StateMsg  // gossip delivered, in this order
		pops    int         // states popped before the purge
		raise   ProposalNum // then the highest proposition number seen rises to this (zero: it does not)
		lap     []amac.NodeID
		next    []amac.NodeID
		decided []amac.Value
	}{
		{name: "ascending order, wraps", n: 9, merge: five,
			lap: []amac.NodeID{2, 3, 4, 6, 8}, next: []amac.NodeID{2, 3, 4, 6, 8}},
		{name: "purge in mid-lap", n: 9, merge: five, pops: 2, raise: ProposalNum{Tag: 3, ID: 9},
			lap: []amac.NodeID{2, 3, 8}, next: []amac.NodeID{3, 4, 8}},
		{name: "purge leaves the cursor past the end", n: 9, merge: five, pops: 4, raise: ProposalNum{Tag: 3, ID: 9},
			lap: []amac.NodeID{2, 3, 4, 6}, next: []amac.NodeID{3, 4, 8}},
		{name: "purge drops everything but the node's own entry", n: 9, merge: []StateMsg{promise(2, heard), promise(6, heard)},
			pops: 1, raise: ProposalNum{Tag: 9, ID: 9},
			lap: []amac.NodeID{2}, next: []amac.NodeID{3}},
		{name: "proposer decides on a majority of gossiped acceptances, once", n: 5, propose: true,
			merge: []StateMsg{promise(1, mine), promise(2, mine), // a majority with its own: on to the propose phase
				accept(1, mine), accept(2, mine), accept(4, mine), accept(5, mine)},
			lap: []amac.NodeID{1, 2, 3, 4, 5}, next: []amac.NodeID{1, 2, 3, 4, 5},
			decided: []amac.Value{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nd, api := startedNode(3, tc.n)
			if tc.propose {
				nd.generateProposal()
			} else {
				nd.OnReceive(&Combined{Proposer: &ProposerMsg{Kind: Prepare, Num: heard}})
			}
			for i := range tc.merge {
				nd.OnReceive(&Combined{State: &tc.merge[i]})
			}
			// One lap: pop until the cursor is about to wrap.
			var lap []amac.NodeID
			pop := func() {
				st, ok := nd.popState()
				if !ok {
					t.Fatal("the gossip table is empty: the node's own entry is gone")
				}
				lap = append(lap, st.Origin)
			}
			for range tc.pops {
				pop()
			}
			if tc.raise != (ProposalNum{}) {
				nd.enqueueProp(ProposerMsg{Kind: Prepare, Num: tc.raise})
			}
			for nd.stateCur < len(nd.states) {
				pop()
			}
			if !slices.Equal(lap, tc.lap) {
				t.Errorf("the lap offered origins %v, want %v", lap, tc.lap)
			}
			lap = nil
			for range nd.states {
				pop()
			}
			if !slices.Equal(lap, tc.next) {
				t.Errorf("the next lap offered origins %v, want %v", lap, tc.next)
			}
			if stateOf(nd, 3) == nil {
				t.Error("the node's own acceptor state left the table")
			}
			if !slices.Equal(api.decisions, tc.decided) {
				t.Errorf("decided %v, want %v", api.decisions, tc.decided)
			}
			if tc.propose {
				if nd.prop.phase != propProposing || nd.prop.num != mine {
					t.Fatalf("proposer is in phase %v at %v, want proposing %v", nd.prop.phase, nd.prop.num, mine)
				}
				if by := chosenBy(nd, mine); len(by) != 5 || len(nd.gossAcks) != 0 {
					t.Errorf("acceptances of %v: chosen-value watch counts %d origins, the prepare tally %d; want 5 and 0", mine, len(by), len(nd.gossAcks))
				}
			}
		})
	}
}

// TestFailoverBuildsSuccessorsTree: the max id dies mid-round on grid:4x4.
// Every survivor decides, and every survivor that has demoted the dead
// leader holds a route to the successor — learned after its own suspicion
// from the fired neighbors' re-advertisement, since until then it refused
// to track that root (as it refuses to relay the successor's responses:
// queue invariant (1)).
func TestFailoverBuildsSuccessorsTree(t *testing.T) {
	g := graph.Grid(4, 4)
	n := g.N()
	inputs := mixedInputs(n)
	var nodes []*Node
	res := sim.Run(sim.Config{
		Graph:  g,
		Inputs: inputs,
		Factory: func(nc amac.NodeConfig) amac.Algorithm {
			nd := newNode(nc.Input, Config{N: n})
			nodes = append(nodes, nd)
			return nd
		},
		Scheduler: sim.NewRandom(4, 1),
		Crashes:   []sim.Crash{{Node: n - 1, At: 40}}, // default ids: node n-1 holds id n
		MaxEvents: 2_000_000,
	})
	if rep := consensus.Check(inputs, res); !rep.Agreement || !rep.Validity || !rep.Termination {
		t.Fatalf("survivors did not all decide: %v (termination %v)", rep.Errors, rep.Termination)
	}
	successor, demoted := amac.NodeID(n-1), 0
	for i, nd := range nodes[:n-1] {
		if nd.det.Omega() != successor {
			continue
		}
		demoted++
		parent := nd.tree.parentTo(successor)
		if nd.id != successor && parent == amac.NoID {
			t.Errorf("node %d follows successor %d but has no route to it", i, successor)
		}
		if nd.id == successor && parent != successor {
			t.Errorf("the successor's parent to itself is %d", parent)
		}
	}
	if demoted == 0 {
		t.Fatal("no survivor demoted the dead leader: the cell does not exercise failover")
	}
}
