package floodpaxos

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/omega"
	"github.com/absmac/absmac/internal/sim"
)

// newNode returns an unstarted node for the given input in a network of
// size n, as NewFactory builds one on a fresh engine.
func newNode(input amac.Value, n int) *Node {
	return NewFactory(n)(amac.NodeConfig{Input: input}).(*Node)
}

func mixed(n int) []amac.Value {
	inputs := make([]amac.Value, n)
	for i := range inputs {
		inputs[i] = amac.Value(i % 2)
	}
	return inputs
}

func TestCorrectAcrossTopologies(t *testing.T) {
	cases := []*graph.Graph{
		graph.Clique(6),
		graph.Line(7),
		graph.Ring(8),
		graph.Grid(3, 3),
		graph.RandomConnected(14, 0.15, 5),
	}
	for i, g := range cases {
		inputs := mixed(g.N())
		for seed := int64(0); seed < 3; seed++ {
			res := sim.Run(sim.Config{
				Graph:           g,
				Inputs:          inputs,
				Factory:         NewFactory(g.N()),
				Scheduler:       sim.NewRandom(3, seed),
				StopWhenDecided: true,
			})
			rep := consensus.Check(inputs, res)
			if !rep.OK() {
				t.Fatalf("case %d seed %d: %v", i, seed, rep.Errors)
			}
		}
	}
}

func TestSingleNode(t *testing.T) {
	inputs := []amac.Value{1}
	res := sim.Run(sim.Config{
		Graph:           graph.Clique(1),
		Inputs:          inputs,
		Factory:         NewFactory(1),
		Scheduler:       sim.Synchronous{},
		StopWhenDecided: true,
	})
	rep := consensus.Check(inputs, res)
	if !rep.OK() || rep.Value != 1 {
		t.Fatalf("single node: %v", rep.Errors)
	}
}

// TestSlowerThanWPaxosOnBottleneck is the package's reason to exist: on a
// hub topology the per-acceptor response flood must cost visibly more time
// than wPAXOS's aggregated responses at the same n and D.
func TestSlowerThanWPaxosOnBottleneck(t *testing.T) {
	g := graph.StarOfLines(24, 2) // 49 nodes, diameter 4
	inputs := mixed(g.N())
	runWith := func(f amac.Factory) int64 {
		res := sim.Run(sim.Config{
			Graph:           g,
			Inputs:          inputs,
			Factory:         f,
			Scheduler:       sim.Synchronous{},
			StopWhenDecided: true,
		})
		rep := consensus.Check(inputs, res)
		if !rep.OK() {
			t.Fatalf("%v", rep.Errors)
		}
		return res.MaxDecideTime
	}
	tFlood := runWith(NewFactory(g.N()))
	tTree := runWith(wpaxos.NewFactory(wpaxos.Config{N: g.N()}))
	if float64(tFlood) < 1.5*float64(tTree) {
		t.Fatalf("flood=%d tree=%d: expected the flooding baseline to be clearly slower", tFlood, tTree)
	}
}

// TestOmegaSinceStamped reads the Ω stabilization time every node reports
// after a crash-free run on expander:64:8 (default ids 1..n): the max-id
// node leads itself from the start, so its Ω never moved and its
// OmegaSince is 0; every other node moved its Ω at least once, when it
// first heard a larger id, so its OmegaSince is after time 0.
func TestOmegaSinceStamped(t *testing.T) {
	g := graph.Expander(64, 8, 1)
	n := g.N()
	inputs := mixed(n)
	nodes := make([]*Node, n)
	build := NewFactory(n)
	res := sim.Run(sim.Config{
		Graph:  g,
		Inputs: inputs,
		Factory: func(nc amac.NodeConfig) amac.Algorithm {
			a := build(nc).(*Node)
			nodes[nc.ID-1] = a
			return a
		},
		Scheduler:       sim.NewRandom(4, 1),
		StopWhenDecided: true,
	})
	if rep := consensus.Check(inputs, res); !rep.OK() {
		t.Fatalf("%v", rep.Errors)
	}
	for i, a := range nodes {
		v := a.Inspect()
		if i == n-1 {
			if v.OmegaSince != 0 {
				t.Errorf("max-id node %d: OmegaSince %d, want 0 (its Ω never moved)", i, v.OmegaSince)
			}
			continue
		}
		if v.OmegaSince <= 0 {
			t.Errorf("node %d: OmegaSince %d, want > 0 (Ω %d is not its own id)", i, v.OmegaSince, v.Omega)
		}
	}
}

// TestSparseAndMixedIDs: nothing in the node may assume ids are 1..n. Run
// with a shuffle of sparse ids far above n (every acceptor misses the heard
// table and the detector's bitset) and with a mix of ids at most n and ids
// far above them (both paths in one execution), under the random scheduler.
func TestSparseAndMixedIDs(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid4x4", graph.Grid(4, 4)},
		{"expander64x4", graph.Expander(64, 4, 3)},
	} {
		n := tc.g.N()
		rng := rand.New(rand.NewSource(int64(n)))
		sparseIDs := make([]amac.NodeID, n)
		mixedIDs := make([]amac.NodeID, n)
		for i := range sparseIDs {
			sparseIDs[i] = amac.NodeID(1_000_000_000 + 17*i)
			if mixedIDs[i] = amac.NodeID(i/2 + 1); i%2 == 1 {
				mixedIDs[i] = amac.NodeID(1<<40 + 1_000_003*i)
			}
		}
		rng.Shuffle(n, func(i, j int) { sparseIDs[i], sparseIDs[j] = sparseIDs[j], sparseIDs[i] })
		rng.Shuffle(n, func(i, j int) { mixedIDs[i], mixedIDs[j] = mixedIDs[j], mixedIDs[i] })
		inputs := mixed(n)
		for seed := int64(0); seed < 4; seed++ {
			for _, ids := range []struct {
				name string
				ids  []amac.NodeID
			}{{"sparse", sparseIDs}, {"mixed", mixedIDs}} {
				res := sim.Run(sim.Config{
					Graph:           tc.g,
					Inputs:          inputs,
					Factory:         NewFactory(n),
					Scheduler:       sim.NewRandom(4, seed),
					IDs:             ids.ids,
					StopWhenDecided: true,
				})
				if rep := consensus.Check(inputs, res); !rep.OK() {
					t.Fatalf("%s/%s seed %d: %v", tc.name, ids.name, seed, rep.Errors)
				}
			}
		}
	}
}

// TestHeardMatchesMapOracle drives the heard table and the map it replaced
// with one seeded stream of responses from acceptors inside the table (0
// and n), past it (n+1, 2^40) and below it (-1), across supersessions, and
// requires the same dedup answers: the same promise and accept tallies and
// the same number of responses queued for the relay.
func TestHeardMatchesMapOracle(t *testing.T) {
	const n = 8
	a := newNode(0, n)
	a.Start(&fakeAPI{id: 3})
	ids := []amac.NodeID{0, 1, n, n + 1, -1, 1 << 40}
	rng := rand.New(rand.NewSource(1))
	type key struct {
		kind wpaxos.PropKind
		id   amac.NodeID
	}
	want := map[key]bool{}
	for tag := int64(1); tag <= 4; tag++ {
		num := wpaxos.ProposalNum{Tag: tag, ID: 2}
		clear(want) // a higher number supersedes everything heard
		for step := 0; step < 60; step++ {
			k := key{wpaxos.Prepare + wpaxos.PropKind(rng.Intn(2)), ids[rng.Intn(len(ids))]}
			want[k] = true
			a.onResponse(ResponseMsg{Prop: wpaxos.Proposition{Kind: k.kind, Num: num}, Acceptor: k.id})
			promises, accepts := 0, 0
			for w := range want {
				if w.kind == wpaxos.Prepare {
					promises++
				} else {
					accepts++
				}
			}
			if a.live != num || a.promises != promises || a.accepts != accepts || len(a.respQ) != len(want) {
				t.Fatalf("number %v step %d after %v: live %v, %d promises, %d accepts, %d queued; oracle %d, %d, %d",
					num, step, k, a.live, a.promises, a.accepts, len(a.respQ), promises, accepts, len(want))
			}
		}
	}
}

func TestUnanimousValidity(t *testing.T) {
	for _, v := range []amac.Value{0, 1} {
		g := graph.Line(6)
		inputs := make([]amac.Value, 6)
		for i := range inputs {
			inputs[i] = v
		}
		res := sim.Run(sim.Config{
			Graph:           g,
			Inputs:          inputs,
			Factory:         NewFactory(6),
			Scheduler:       sim.NewRandom(2, 9),
			StopWhenDecided: true,
		})
		rep := consensus.Check(inputs, res)
		if !rep.OK() || rep.Value != v {
			t.Fatalf("unanimous %d: %v (value %d)", v, rep.Errors, rep.Value)
		}
	}
}

func TestPanics(t *testing.T) {
	for _, f := range []func(){
		func() { newNode(0, 0) },
		func() { newNode(2, 3) },
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

// TestRelayInvariant watches a whole execution — several proposers
// duelling while Ω settles, then the winner's two phases — and checks the
// relay invariant on a node before each of its handlers runs, and on every
// node at the end: so after every handler. The pending cycle holds
// only responses to the node's live number, never a Prepare response once
// the Propose was seen, and at most 2n of them; and the live number is no
// lower than any proposal number the node was ever sent, tracked here from
// the messages alone.
func TestRelayInvariant(t *testing.T) {
	const n = 32
	g := graph.Expander(n, 4, 1)
	inputs := mixed(n)
	for seed := int64(1); seed <= 3; seed++ {
		nodes := make([]*Node, n)
		base := NewFactory(n)
		sent := make([]wpaxos.ProposalNum, n)     // highest number sent to (or by) each node
		proposed := make([]wpaxos.ProposalNum, n) // highest number whose Propose each node was sent
		note := func(i int, c *Combined) {
			if c.Proposer != nil {
				sent[i] = sent[i].Max(c.Proposer.Num)
				if c.Proposer.Kind == wpaxos.Propose {
					proposed[i] = proposed[i].Max(c.Proposer.Num)
				}
			}
			if c.Response != nil {
				sent[i] = sent[i].Max(c.Response.Prop.Num)
			}
		}
		check := func(i int, at int64) {
			a := nodes[i]
			if a.live.Less(sent[i]) {
				t.Fatalf("seed %d t=%d node %d: live number %v below %v, which it was sent", seed, at, i, a.live, sent[i])
			}
			if len(a.respQ) > 2*n {
				t.Fatalf("seed %d t=%d node %d: %d pending responses, want <= 2n = %d", seed, at, i, len(a.respQ), 2*n)
			}
			for _, r := range a.respQ {
				if r.Prop.Num != a.live {
					t.Fatalf("seed %d t=%d node %d: pending response to %v, live number is %v", seed, at, i, r.Prop, a.live)
				}
				if r.Prop.Kind == wpaxos.Prepare && proposed[i] == a.live {
					t.Fatalf("seed %d t=%d node %d: pending response to %v after its Propose was seen", seed, at, i, r.Prop)
				}
			}
		}
		res := sim.Run(sim.Config{
			Graph:  g,
			Inputs: inputs,
			Factory: func(cfg amac.NodeConfig) amac.Algorithm {
				a := base(cfg).(*Node)
				nodes[cfg.ID-1] = a
				return a
			},
			Scheduler:       sim.NewRandom(4, seed),
			StopWhenDecided: true,
			Observer: func(ev sim.Event) {
				// Deliver and ack events are reported before the handler
				// runs: the node is as its previous handler left it.
				switch ev.Kind {
				case sim.EventDeliver, sim.EventAck:
					check(ev.Node, ev.Time)
				}
				if ev.Kind == sim.EventDeliver || ev.Kind == sim.EventBroadcast {
					note(ev.Node, ev.Message.(*Combined))
				}
			},
		})
		for i := range nodes {
			check(i, res.Time)
		}
		if rep := consensus.Check(inputs, res); !rep.OK() {
			t.Fatalf("seed %d: %v", seed, rep.Errors)
		}
	}
}

// fakeAPI lets a test drive one node by hand.
type fakeAPI struct {
	id  amac.NodeID
	now int64
}

func (f *fakeAPI) ID() amac.NodeID             { return f.id }
func (f *fakeAPI) Broadcast(amac.Message) bool { return true }
func (f *fakeAPI) Decide(amac.Value)           {}
func (f *fakeAPI) Now() int64                  { return f.now }

// TestSupersededProposerRetriesWithinBudget: no nack tells a proposer its
// round lost any more; seeing a higher number does. The first such sighting
// ends the round and starts the next above it (the node still believes
// itself leader and has one number left), the second exhausts the
// two-numbers budget and leaves the node idle for the detector's re-arm or
// the next change event.
func TestSupersededProposerRetriesWithinBudget(t *testing.T) {
	a := newNode(0, 5)
	a.Start(&fakeAPI{id: 3})
	// Alone in its membership the node is its own leader; a change
	// notification makes it propose.
	a.OnReceive(&Combined{Change: &omega.ChangeMsg{T: 1, ID: 9}})
	if want := (wpaxos.ProposalNum{Tag: 1, ID: 3}); a.phase != 1 || a.live != want {
		t.Fatalf("after the change: phase %d, live %v, want phase 1, live %v", a.phase, a.live, want)
	}
	rival := func(tag int64) *Combined {
		return &Combined{Response: &ResponseMsg{
			Prop:     wpaxos.Proposition{Kind: wpaxos.Prepare, Num: wpaxos.ProposalNum{Tag: tag, ID: 2}},
			Acceptor: 4,
		}}
	}
	a.OnReceive(rival(5))
	if want := (wpaxos.ProposalNum{Tag: 6, ID: 3}); a.phase != 1 || a.live != want {
		t.Fatalf("after the first rival: phase %d, live %v, want a fresh round %v", a.phase, a.live, want)
	}
	if len(a.respQ) != 0 || a.promises != 1 {
		t.Fatalf("after the first rival: %d pending responses, %d promises; want the rival's response dropped and only the node's own promise counted",
			len(a.respQ), a.promises)
	}
	a.OnReceive(rival(8))
	if want := (wpaxos.ProposalNum{Tag: 8, ID: 2}); a.phase != 0 || a.live != want {
		t.Fatalf("after the second rival: phase %d, live %v, want idle with live %v", a.phase, a.live, want)
	}
	if len(a.respQ) != 1 {
		t.Fatalf("idle node holds %d pending responses, want the rival's one relayed", len(a.respQ))
	}
}

// TestNewAllocatesLittle pins the table sizing: of what is keyed by the live
// number only the heard table is sized up front, one byte per id (1 KB at
// n=1024), and the rest starts empty (a node was 74 KB at n=128 and over
// 500 KB at n=1024 when every table was sized for the worst case).
func TestNewAllocatesLittle(t *testing.T) {
	const n, nodes = 1024, 64
	keep := make([]*Node, nodes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = newNode(amac.Value(i%2), n)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	if perNode := (after.TotalAlloc - before.TotalAlloc) / nodes; perNode >= 64<<10 {
		t.Fatalf("New at n=%d allocates %d bytes per node, want < 64 KB", n, perNode)
	}
}
