package wpaxos

import (
	"math/rand"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/omega"
	"github.com/absmac/absmac/internal/sim"
)

func runOn(t *testing.T, g *graph.Graph, inputs []amac.Value, sched sim.Scheduler, ids []amac.NodeID) (*sim.Result, *CountAudit) {
	t.Helper()
	audit := NewCountAudit()
	res := sim.Run(sim.Config{
		Graph:     g,
		Inputs:    inputs,
		Factory:   NewFactory(Config{N: g.N(), Audit: audit}),
		Scheduler: sched,
		IDs:       ids,
	})
	return res, audit
}

// newNode returns an unstarted node for the given binary input, as
// NewFactory builds one on a fresh engine.
func newNode(input amac.Value, cfg Config) *Node {
	nd := new(Node)
	nd.arm(input, cfg)
	return nd
}

func mixedInputs(n int) []amac.Value {
	inputs := make([]amac.Value, n)
	for i := range inputs {
		inputs[i] = amac.Value(i % 2)
	}
	return inputs
}

func checkOK(t *testing.T, name string, inputs []amac.Value, res *sim.Result, audit *CountAudit) {
	t.Helper()
	rep := consensus.Check(inputs, res)
	if !rep.OK() {
		t.Fatalf("%s: %v", name, rep.Errors)
	}
	if v := audit.Violations(); len(v) != 0 {
		t.Fatalf("%s: Lemma 4.2 violated for propositions %v", name, v)
	}
}

func TestLineSynchronous(t *testing.T) {
	g := graph.Line(5)
	inputs := mixedInputs(5)
	res, audit := runOn(t, g, inputs, sim.Synchronous{}, nil)
	checkOK(t, "line5", inputs, res, audit)
}

func TestSingleNode(t *testing.T) {
	g := graph.Clique(1)
	inputs := []amac.Value{1}
	res, audit := runOn(t, g, inputs, sim.Synchronous{}, nil)
	checkOK(t, "single", inputs, res, audit)
	if res.Decision[0] != 1 {
		t.Fatalf("decided %d, want own input 1", res.Decision[0])
	}
}

func TestTopologyFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"clique8", graph.Clique(8)},
		{"line9", graph.Line(9)},
		{"ring10", graph.Ring(10)},
		{"star9", graph.Star(9)},
		{"grid4x4", graph.Grid(4, 4)},
		{"tree2x3", graph.BalancedTree(2, 3)},
		{"starlines3x3", graph.StarOfLines(3, 3)},
		{"random20", graph.RandomConnected(20, 0.15, 11)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inputs := mixedInputs(tc.g.N())
			for seed := int64(0); seed < 4; seed++ {
				res, audit := runOn(t, tc.g, inputs, sim.NewRandom(4, seed), nil)
				checkOK(t, tc.name, inputs, res, audit)
			}
		})
	}
}

func TestLeaderFarFromCenter(t *testing.T) {
	// Put the maximum id at one end of a line: leader election and the
	// leader-rooted tree must both cross the whole diameter.
	n := 12
	g := graph.Line(n)
	ids := make([]amac.NodeID, n)
	for i := range ids {
		ids[i] = amac.NodeID(n - i) // node 0 has the max id
	}
	inputs := mixedInputs(n)
	res, audit := runOn(t, g, inputs, sim.NewRandom(3, 7), ids)
	checkOK(t, "leader-at-end", inputs, res, audit)
}

// TestSparseAndMixedIDs: nothing in the node may assume ids are 1..n. Run
// with a shuffle of sparse ids far above n (every id misses the
// detector's membership bitset) and with a mix of ids at most n and ids
// far above it (both Learn paths in one execution), under the random
// scheduler.
func TestSparseAndMixedIDs(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid4x4", graph.Grid(4, 4)},
		{"expander64x4", graph.Expander(64, 4, 3)},
	}
	for _, tc := range graphs {
		n := tc.g.N()
		rng := rand.New(rand.NewSource(int64(n)))
		sparse := make([]amac.NodeID, n)
		mixed := make([]amac.NodeID, n)
		for i := range sparse {
			sparse[i] = amac.NodeID(1_000_000_000 + 17*i)
			if mixed[i] = amac.NodeID(i/2 + 1); i%2 == 1 {
				mixed[i] = amac.NodeID(1<<40 + 1_000_003*i)
			}
		}
		rng.Shuffle(n, func(i, j int) { sparse[i], sparse[j] = sparse[j], sparse[i] })
		rng.Shuffle(n, func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
		inputs := mixedInputs(n)
		for seed := int64(0); seed < 4; seed++ {
			res, audit := runOn(t, tc.g, inputs, sim.NewRandom(4, seed), sparse)
			checkOK(t, tc.name+"/sparse", inputs, res, audit)
			res, audit = runOn(t, tc.g, inputs, sim.NewRandom(4, seed), mixed)
			checkOK(t, tc.name+"/mixed", inputs, res, audit)
		}
	}
}

func TestDecisionTimeScalesWithDiameter(t *testing.T) {
	// Theorem 4.6: decisions within O(D*Fack). The constant here is an
	// empirical envelope (experiment E6 in internal/exp/upper.go measures
	// it across topologies): comfortably small, and the point is that it
	// does not grow with D.
	const f = 4
	for _, d := range []int{4, 8, 16, 32} {
		g := graph.Line(d + 1)
		inputs := mixedInputs(d + 1)
		res, audit := runOn(t, g, inputs, sim.NewRandom(f, 1), nil)
		checkOK(t, "line", inputs, res, audit)
		bound := int64(20 * (d + 1) * f)
		if res.MaxDecideTime > bound {
			t.Fatalf("D=%d: decision time %d exceeds envelope %d", d, res.MaxDecideTime, bound)
		}
	}
}

func TestSlowMinorityDoesNotBlock(t *testing.T) {
	// wPAXOS needs only a majority of acceptors: slowing a minority by
	// 50x must not slow the decision by anything like 50x.
	n := 11
	g := graph.Clique(n)
	inputs := mixedInputs(n)
	slow := map[int]bool{0: true, 1: true, 2: true} // minority of 3
	sched := sim.SlowSubset{Base: sim.NewRandom(2, 5), Slow: slow, Factor: 50}
	audit := NewCountAudit()
	res := sim.Run(sim.Config{
		Graph:     g,
		Inputs:    inputs,
		Factory:   NewFactory(Config{N: n, Audit: audit}),
		Scheduler: sched,
	})
	rep := consensus.Check(inputs, res)
	if !rep.OK() {
		t.Fatalf("%v", rep.Errors)
	}
	if v := audit.Violations(); len(v) != 0 {
		t.Fatalf("Lemma 4.2 violated: %v", v)
	}
	// The slow nodes' broadcasts take 100 time units each. A decision
	// well under that shows the majority carried the day. (The slow
	// nodes themselves still decide via the flooded decision.)
	fastDecide := int64(0)
	for i := 3; i < n; i++ {
		if res.DecideTime[i] > fastDecide {
			fastDecide = res.DecideTime[i]
		}
	}
	if fastDecide >= 100 {
		t.Fatalf("fast majority decided at %d, not ahead of one slow broadcast cycle (100)", fastDecide)
	}
}

func TestValidityUnanimous(t *testing.T) {
	for _, v := range []amac.Value{0, 1} {
		g := graph.Grid(3, 3)
		inputs := make([]amac.Value, g.N())
		for i := range inputs {
			inputs[i] = v
		}
		res, audit := runOn(t, g, inputs, sim.NewRandom(3, 2), nil)
		checkOK(t, "unanimous", inputs, res, audit)
		rep := consensus.Check(inputs, res)
		if rep.Value != v {
			t.Fatalf("unanimous %d: decided %d", v, rep.Value)
		}
	}
}

func TestAggregationAuditAcrossSeeds(t *testing.T) {
	// E9's property: c(p) <= a(p) under scheduler churn, topology
	// variety, and adversarial serialization.
	for seed := int64(0); seed < 10; seed++ {
		g := graph.RandomConnected(15, 0.12, seed)
		inputs := mixedInputs(15)
		res, audit := runOn(t, g, inputs, sim.NewRandom(1+seed%5, seed*13), nil)
		checkOK(t, "audit-sweep", inputs, res, audit)
		if audit.Propositions() == 0 {
			t.Fatal("audit saw no propositions; instrumentation broken?")
		}
	}
}

func TestTagGrowthModest(t *testing.T) {
	// Lemma 4.4: tags stay polynomially bounded; empirically they stay
	// tiny. Track the max tag used across nodes.
	for _, n := range []int{8, 16, 32} {
		g := graph.RandomConnected(n, 0.1, int64(n))
		inputs := mixedInputs(n)
		var nodes []*Node
		factory := func(nc amac.NodeConfig) amac.Algorithm {
			nd := newNode(nc.Input, Config{N: n})
			nodes = append(nodes, nd)
			return nd
		}
		res := sim.Run(sim.Config{
			Graph:     g,
			Inputs:    inputs,
			Factory:   factory,
			Scheduler: sim.NewRandom(3, 17),
		})
		rep := consensus.Check(inputs, res)
		if !rep.OK() {
			t.Fatalf("n=%d: %v", n, rep.Errors)
		}
		maxTag := int64(0)
		for _, nd := range nodes {
			maxTag = max(maxTag, nd.prop.maxTagSeen)
		}
		if maxTag > int64(4*n*n) {
			t.Fatalf("n=%d: max tag %d exceeds the O(n^2) change-event budget", n, maxTag)
		}
	}
}

func TestEdgeOrderAdversary(t *testing.T) {
	g := graph.Grid(3, 4)
	inputs := mixedInputs(g.N())
	res, audit := runOn(t, g, inputs, &sim.EdgeOrder{MaxDegree: 4}, nil)
	checkOK(t, "edgeorder", inputs, res, audit)
	res, audit = runOn(t, g, inputs, &sim.EdgeOrder{MaxDegree: 4, Descending: true}, nil)
	checkOK(t, "edgeorder-desc", inputs, res, audit)
}

func TestConstructorValidation(t *testing.T) {
	for _, f := range []func(){
		func() { newNode(2, Config{N: 3}) },
		func() { NewFactory(Config{N: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestIntrospectionAfterRun(t *testing.T) {
	n := 6
	g := graph.Line(n)
	inputs := mixedInputs(n)
	var nodes []*Node
	factory := func(nc amac.NodeConfig) amac.Algorithm {
		nd := newNode(nc.Input, Config{N: n})
		nodes = append(nodes, nd)
		return nd
	}
	res := sim.Run(sim.Config{
		Graph:     g,
		Inputs:    inputs,
		Factory:   factory,
		Scheduler: sim.Synchronous{},
	})
	rep := consensus.Check(inputs, res)
	if !rep.OK() {
		t.Fatalf("%v", rep.Errors)
	}
	maxID := amac.NodeID(n)
	for i, nd := range nodes {
		v := nd.Inspect()
		if v.Omega != maxID {
			t.Fatalf("node %d leader estimate %d, want %d", i, v.Omega, maxID)
		}
		if !v.Decided || v.Decision != rep.Value {
			t.Fatalf("node %d view decided %v, %d; want true, %d", i, v.Decided, v.Decision, rep.Value)
		}
		// On a line with ids 1..n, the leader (id n) sits at index n-1;
		// distances should match the line distance.
		wantDist := int64(n - 1 - i)
		if d := nd.tree.distTo(v.Omega); d != wantDist {
			t.Fatalf("node %d dist to leader %d, want %d", i, d, wantDist)
		}
	}
}

// TestSafetyUnderUnreliableLinks exercises the paper's first future-work
// direction: an abstract MAC layer with unreliable links in addition to
// reliable ones. wPAXOS's safety must survive arbitrary extra deliveries
// over unreliable edges. Liveness legitimately may NOT survive — the tree
// can adopt a parent across an unreliable edge and lose a response — which
// is precisely the open question the paper states in Section 2; experiment
// E11 quantifies it. This test asserts the unconditional part only.
func TestSafetyUnderUnreliableLinks(t *testing.T) {
	terminated := 0
	const seeds = 6
	for seed := int64(0); seed < seeds; seed++ {
		g := graph.RandomConnected(14, 0.08, seed)
		overlay := graph.RandomOverlay(g, 10, seed+100)
		inputs := mixedInputs(14)
		audit := NewCountAudit()
		res := sim.Run(sim.Config{
			Graph:      g,
			Unreliable: overlay,
			Inputs:     inputs,
			Factory:    NewFactory(Config{N: 14, Audit: audit}),
			Scheduler:  sim.NewLossy(sim.NewRandom(4, seed*3+1), 0.4, seed*5+2),
		})
		rep := consensus.Check(inputs, res)
		if !rep.Agreement {
			t.Fatalf("seed %d: agreement violated: %v", seed, rep.Errors)
		}
		if rep.SomeoneDecided && !rep.Validity {
			t.Fatalf("seed %d: validity violated: %v", seed, rep.Errors)
		}
		if v := audit.Violations(); len(v) != 0 {
			t.Fatalf("seed %d: Lemma 4.2 violated under lossy links: %v", seed, v)
		}
		if rep.Termination {
			terminated++
		}
	}
	if terminated == 0 {
		t.Fatal("no run terminated at all; the reliable substrate should usually carry the day")
	}
}

// TestMultivaluedConsensus runs wPAXOS with arbitrary (non-binary) values:
// the PAXOS value rides along unchanged, so agreement/validity/termination
// hold for any value set. The paper restricts to binary consensus to
// strengthen its lower bounds, and so does newNode; the test sets each
// node's input behind the constructor's check.
func TestMultivaluedConsensus(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := graph.RandomConnected(12, 0.15, seed)
		inputs := make([]amac.Value, 12)
		for i := range inputs {
			inputs[i] = amac.Value(10 + (i*7+int(seed))%9) // values in 10..18
		}
		res := sim.Run(sim.Config{
			Graph:  g,
			Inputs: inputs,
			Factory: func(nc amac.NodeConfig) amac.Algorithm {
				nd := newNode(0, Config{N: 12})
				nd.input = nc.Input
				return nd
			},
			Scheduler: sim.NewRandom(4, seed*3+1),
		})
		rep := consensus.Check(inputs, res)
		if !rep.OK() {
			t.Fatalf("seed %d: %v", seed, rep.Errors)
		}
		// The decided value must be one of the proposed ones (validity
		// is already checked, but make the multivalued point explicit).
		found := false
		for _, v := range inputs {
			if v == rep.Value {
				found = true
			}
		}
		if !found {
			t.Fatalf("seed %d: decided %d, not among inputs %v", seed, rep.Value, inputs)
		}
	}
}

func TestBinaryConstructorStillStrict(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-binary input via newNode")
		}
	}()
	newNode(7, Config{N: 3})
}

// TestCrashSafetyOnly documents that Theorem 3.2 applies to wPAXOS too:
// with a crash failure the algorithm may lose termination (the paper
// assumes no crashes for its upper bounds), but agreement and validity
// hold among whatever decisions happen.
func TestCrashSafetyOnly(t *testing.T) {
	g := graph.Grid(3, 3)
	n := g.N()
	for seed := int64(0); seed < 8; seed++ {
		inputs := mixedInputs(n)
		crashes := []sim.Crash{{Node: int(seed) % n, At: 1 + seed*2}}
		res := sim.Run(sim.Config{
			Graph:     g,
			Inputs:    inputs,
			Factory:   NewFactory(Config{N: n}),
			Scheduler: sim.NewRandom(3, seed*11+1),
			Crashes:   crashes,
			MaxEvents: 500_000,
		})
		rep := consensus.Check(inputs, res)
		if !rep.Agreement {
			t.Fatalf("seed %d: agreement violated under crash: %v", seed, rep.Errors)
		}
		if rep.SomeoneDecided && !rep.Validity {
			t.Fatalf("seed %d: validity violated under crash: %v", seed, rep.Errors)
		}
	}
}

// stubAPI is a substrate that accepts every broadcast and acks none, so
// the node under test stays in flight until the test calls OnAck itself.
type stubAPI struct {
	id         amac.NodeID
	now        int64
	broadcasts int
	last       amac.Message // the latest broadcast
	decisions  []amac.Value
}

func (a *stubAPI) ID() amac.NodeID { return a.id }
func (a *stubAPI) Broadcast(m amac.Message) bool {
	a.broadcasts++
	a.last = m
	return true
}
func (a *stubAPI) Decide(v amac.Value) { a.decisions = append(a.decisions, v) }
func (a *stubAPI) Now() int64          { return a.now }

// TestSteadyStateDeliveryDoesNotAllocate pins the path nearly every
// delivery of a large run takes: with the node's own broadcast in flight,
// a Combined whose leader id, search (not an improvement), change, state
// (a retransmission) and proposition are all already known is absorbed
// without allocating.
func TestSteadyStateDeliveryDoesNotAllocate(t *testing.T) {
	api := &stubAPI{id: 3, now: 10}
	nd := NewFactory(Config{N: 5})(amac.NodeConfig{ID: 3, Input: 1}).(*Node)
	nd.Start(api)
	if api.broadcasts != 1 {
		t.Fatalf("Start made %d broadcasts, want 1 in flight", api.broadcasts)
	}
	msg := fullMessage()
	nd.OnReceive(msg) // first sight: everything is learned here
	_, seen := nd.findSeen(msg.Proposer.Proposition())
	if nd.det.Omega() != 9 || nd.tree.distTo(9) != 1 || stateOf(nd, 9) == nil || !seen {
		t.Fatal("the first delivery was not absorbed")
	}
	api.now = 20
	if avg := testing.AllocsPerRun(200, func() { nd.OnReceive(msg) }); avg != 0 {
		t.Fatalf("a fully known delivery allocates %.1f times", avg)
	}
	if api.broadcasts != 1 {
		t.Fatalf("the node broadcast %d times while in flight", api.broadcasts)
	}
}

// fullMessage is a delivery that leaves a fresh node with something in
// every sticky queue: a leader, a change, its tree, a proposition and two
// acceptor states (the sender's and, after the response, the node's own).
func fullMessage() *Combined {
	num := ProposalNum{Tag: 1, ID: 9}
	return &Combined{
		Leader:   &omega.LeaderMsg{ID: 9},
		Change:   &omega.ChangeMsg{T: 5, ID: 9},
		Search:   &SearchMsg{Root: 9, Hops: 1, Sender: 9},
		Proposer: &ProposerMsg{Kind: Prepare, Num: num},
		State:    &StateMsg{Origin: 9, Promised: num},
	}
}

// TestSteadyStateBroadcastDoesNotAllocate pins the sending half: the node
// owns one message and every ack -> pump -> broadcast refills it, so a
// broadcast costs no allocation once that message exists.
func TestSteadyStateBroadcastDoesNotAllocate(t *testing.T) {
	api := &stubAPI{id: 3, now: 10}
	nd := NewFactory(Config{N: 5})(amac.NodeConfig{ID: 3, Input: 1}).(*Node)
	nd.Start(api)
	own := api.last
	nd.OnReceive(fullMessage())
	for range 4 { // past the one-shot slots: the pending tree improvement and the response
		nd.OnAck(api.last)
	}
	sent := api.broadcasts
	if avg := testing.AllocsPerRun(200, func() { nd.OnAck(api.last) }); avg != 0 {
		t.Fatalf("a steady-state broadcast allocates %.1f times", avg)
	}
	if api.broadcasts < sent+200 || api.last != own {
		t.Fatalf("%d broadcasts for 200+ acks, the last one %p; want one each, all of them the node's own message %p",
			api.broadcasts-sent, api.last, own)
	}
	c := own.(*Combined)
	if c.Leader == nil || c.Change == nil || c.Proposer == nil || c.State == nil {
		t.Fatalf("the steady-state broadcast is missing a sticky slot: %+v", c)
	}
}
