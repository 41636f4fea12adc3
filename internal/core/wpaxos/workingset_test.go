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
	for _, e := range nd.tr.tree.ents {
		roots = append(roots, e.root)
	}
	return roots
}

func pendingRoots(nd *Node) []amac.NodeID {
	return slices.Clone(nd.tr.tree.queue[nd.tr.tree.qhead:])
}

// TestSearchForRootThatCannotLeadIsIgnored: a <search> for a root below Ω,
// or for a suspected root, changes nothing — no entry, no improvement, no
// pending relay — and is not novel information to the detector.
func TestSearchForRootThatCannotLeadIsIgnored(t *testing.T) {
	nd, api := startedNode(3, 5)
	nd.OnReceive(&Combined{Leader: &omega.LeaderMsg{ID: 9}, Search: &SearchMsg{Root: 9, Hops: 4, Sender: 2}})
	nd.OnReceive(&Combined{Leader: &omega.LeaderMsg{ID: 6}}) // a member below Ω
	if nd.det.Omega() != 9 || nd.tr.tree.distTo(9) != 4 {
		t.Fatalf("leader %d at distance %d, want 9 at 4", nd.det.Omega(), nd.tr.tree.distTo(9))
	}
	roots, pending, novel := trackedRoots(nd), pendingRoots(nd), nd.det.LastNovel()

	api.now = 20
	nd.OnReceive(&Combined{Search: &SearchMsg{Root: 6, Hops: 1, Sender: 6}})
	if got := trackedRoots(nd); !slices.Equal(got, roots) || nd.tr.tree.distTo(6) != -1 {
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
	if nd.tr.tree.distTo(9) != 4 || nd.tr.tree.parentTo(9) != 2 {
		t.Fatalf("a search for suspected root 9 was adopted: dist %d parent %d", nd.tr.tree.distTo(9), nd.tr.tree.parentTo(9))
	}
	if nd.det.LastNovel() != novel {
		t.Fatal("a search for a suspected root reset the silence window")
	}
	// The successor's tree is now wanted, and the old one is kept for a
	// wrap to find.
	nd.OnReceive(&Combined{Search: &SearchMsg{Root: 6, Hops: 1, Sender: 6}})
	if nd.tr.tree.distTo(nd.det.Omega()) != 1 || !slices.Equal(trackedRoots(nd), []amac.NodeID{3, 6, 9}) {
		t.Fatalf("after demotion: dist to leader %d, roots %v", nd.tr.tree.distTo(nd.det.Omega()), trackedRoots(nd))
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

// TestTreeCountsEitherTallyNeverTheirSum: a tree-transport node counts the
// fast path's aggregated responses and the relay's heard acceptors apart.
// Either majority alone moves a proposer on, or decides; one that only
// their sum reaches does not. A node that did not propose decides on a
// majority of relayed accepts of the live number too.
func TestTreeCountsEitherTallyNeverTheirSum(t *testing.T) {
	nd, api := startedNode(3, 5)
	nd.generateProposal()
	num := nd.prop.num
	relay := func(k PropKind, acceptor amac.NodeID) *Combined {
		return &Combined{Relay: &RelayMsg{Prop: Proposition{Kind: k, Num: num}, Acceptor: acceptor}}
	}
	// The node's own promise is in both tallies: with one relayed promise,
	// three of five only when summed.
	nd.OnReceive(relay(Prepare, 4))
	if nd.prop.phase != propPreparing || nd.fl.promises != 2 || nd.prop.acks != 1 {
		t.Fatalf("phase %v with %d heard promises and %d fast-path acks, want preparing, 2 and 1", nd.prop.phase, nd.fl.promises, nd.prop.acks)
	}
	nd.OnReceive(relay(Prepare, 5))
	if nd.prop.phase != propProposing {
		t.Fatalf("three heard promises of five: phase %v, want proposing", nd.prop.phase)
	}
	nd.OnReceive(relay(Propose, 4))
	nd.OnReceive(&Combined{Response: &ResponseMsg{Dest: 3, Prop: Proposition{Kind: Propose, Num: num}, Positive: true, Count: 1}})
	if len(api.decisions) != 0 || nd.fl.accepts != 2 || nd.prop.acks != 2 {
		t.Fatalf("decided %v on %d heard and %d fast-path accepts, want undecided on 2 and 2", api.decisions, nd.fl.accepts, nd.prop.acks)
	}
	nd.OnReceive(relay(Propose, 5))
	if !slices.Equal(api.decisions, []amac.Value{1}) {
		t.Fatalf("three heard accepts of five: decided %v, want [1]", api.decisions)
	}
	if len(nd.fl.cycle) != 0 {
		t.Fatalf("the proposer queued %d responses to its own proposition for the relay", len(nd.fl.cycle))
	}

	// An observer: its own accept and two relayed ones.
	obs, oapi := startedNode(2, 5)
	obs.OnReceive(&Combined{Proposer: &ProposerMsg{Kind: Propose, Num: num, Val: 0}})
	obs.OnReceive(relay(Propose, 4))
	if len(oapi.decisions) != 0 || len(obs.fl.cycle) != 2 {
		t.Fatalf("observer: decided %v with %d responses pending, want undecided with 2", oapi.decisions, len(obs.fl.cycle))
	}
	obs.OnReceive(relay(Propose, 5))
	if !slices.Equal(oapi.decisions, []amac.Value{0}) {
		t.Fatalf("observer: decided %v, want [0]", oapi.decisions)
	}
	if _, pending, _ := obs.WorkingSet(); pending != 3 {
		t.Fatalf("WorkingSet reports %d relayed responses pending, want 3", pending)
	}

	// A proposer overtaken by a higher number keeps its round (the tree
	// transport retries on its fast path's refusals, not on a rise) and
	// does not count the promises to that number as its own.
	lag, _ := startedNode(3, 5)
	lag.generateProposal()
	mine, higher := lag.prop.num, ProposalNum{Tag: 2, ID: 9}
	for _, a := range []amac.NodeID{1, 4, 5} {
		lag.OnReceive(&Combined{Relay: &RelayMsg{Prop: Proposition{Kind: Prepare, Num: higher}, Acceptor: a}})
	}
	if lag.prop.phase != propPreparing || lag.prop.num != mine || lag.live != higher || lag.fl.promises != 3 {
		t.Fatalf("overtaken proposer: phase %v at %v, live %v with %d promises heard; want preparing %v, live %v with 3",
			lag.prop.phase, lag.prop.num, lag.live, lag.fl.promises, mine, higher)
	}
}

// TestFailoverBuildsSuccessorsTree: the max id dies at t=10 on grid:4x4,
// before any round of its can be chosen, so the survivors decide in the
// successor's round. Every survivor decides, and every survivor that has
// demoted the dead leader holds a route to the successor — learned after
// its own suspicion from the fired neighbors' re-advertisement, since until
// then it refused to track that root (as it refuses to route the
// successor's responses on the fast path: queue invariant (1)). A crash
// later in the dead leader's round lets survivors decide through the relay
// before the successor's tree reaches them.
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
		Crashes:   []sim.Crash{{Node: n - 1, At: 10}}, // default ids: node n-1 holds id n
		MaxEvents: 2_000_000,
	})
	if rep := consensus.Check(inputs, res); !rep.Agreement || !rep.Validity || !rep.Termination {
		t.Fatalf("survivors did not all decide: %v (termination %v)", rep.Errors, rep.Termination)
	}
	successor, demoted := amac.NodeID(n-1), 0
	for i, nd := range nodes[:n-1] {
		if p := nd.acc.accepted; p == nil || p.Num.ID != successor {
			t.Errorf("node %d accepted %v, want a proposal of the successor %d", i, p, successor)
		}
		if nd.det.Omega() != successor {
			continue
		}
		demoted++
		parent := nd.tr.tree.parentTo(successor)
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
