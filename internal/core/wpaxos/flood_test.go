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

// TestHeardMatchesMapOracle drives the flood transport's heard table and
// the map it replaced with one seeded stream of responses from acceptors
// inside the table (0 and n), past it (n+1, 2^40) and below it (-1),
// across supersessions, and requires the same dedup answers: the same
// promise and accept tallies and the same number of responses queued for
// the relay.
func TestHeardMatchesMapOracle(t *testing.T) {
	const n = 8
	nd := newNode(0, Config{N: n, Flood: true})
	nd.Start(&stubAPI{id: 3})
	ids := []amac.NodeID{0, 1, n, n + 1, -1, 1 << 40}
	rng := rand.New(rand.NewSource(1))
	type key struct {
		kind PropKind
		id   amac.NodeID
	}
	want := map[key]bool{}
	for tag := int64(1); tag <= 4; tag++ {
		num := ProposalNum{Tag: tag, ID: 2}
		clear(want) // a higher number supersedes everything heard
		for step := 0; step < 60; step++ {
			k := key{Prepare + PropKind(rng.Intn(2)), ids[rng.Intn(len(ids))]}
			want[k] = true
			nd.onFlooded(&RelayMsg{Prop: Proposition{Kind: k.kind, Num: num}, Acceptor: k.id})
			promises, accepts := 0, 0
			for w := range want {
				if w.kind == Prepare {
					promises++
				} else {
					accepts++
				}
			}
			f := &nd.fl
			if nd.live != num || f.promises != promises || f.accepts != accepts || len(f.cycle) != len(want) {
				t.Fatalf("number %v step %d after %v: live %v, %d promises, %d accepts, %d queued; oracle %d, %d, %d",
					num, step, k, nd.live, f.promises, f.accepts, len(f.cycle), promises, accepts, len(want))
			}
		}
	}
}

// TestRelayInvariant watches a whole flood-transport execution — several
// proposers duelling while Ω settles, then the winner's two phases — and
// checks the relay invariant on a node before each of its handlers runs,
// and on every node at the end: so after every handler. The pending cycle
// holds never a Prepare response once the Propose was seen, and at most 2n
// responses; every response a node broadcasts is to its live number (the
// entries hold no number: pump stamps the live one); and the live number
// is no lower than any proposal number the node was ever sent, tracked
// here from the messages alone.
func TestRelayInvariant(t *testing.T) {
	const n = 32
	g := graph.Expander(n, 4, 1)
	inputs := mixedInputs(n)
	for seed := int64(1); seed <= 3; seed++ {
		nodes := make([]*Node, n)
		base := NewFactory(Config{N: n, Flood: true})
		sent := make([]ProposalNum, n)     // highest number sent to (or by) each node
		proposed := make([]ProposalNum, n) // highest number whose Propose each node was sent
		note := func(i int, c *Combined) {
			if c.Proposer != nil {
				sent[i] = sent[i].Max(c.Proposer.Num)
				if c.Proposer.Kind == Propose {
					proposed[i] = proposed[i].Max(c.Proposer.Num)
				}
			}
			if c.Relay != nil {
				sent[i] = sent[i].Max(c.Relay.Prop.Num)
			}
		}
		check := func(i int, at int64) {
			nd := nodes[i]
			if nd.live.Less(sent[i]) {
				t.Fatalf("seed %d t=%d node %d: live number %v below %v, which it was sent", seed, at, i, nd.live, sent[i])
			}
			if len(nd.fl.cycle) > 2*n {
				t.Fatalf("seed %d t=%d node %d: %d pending responses, want <= 2n = %d", seed, at, i, len(nd.fl.cycle), 2*n)
			}
			for _, r := range nd.fl.cycle {
				if r.kind == Prepare && proposed[i] == nd.live {
					t.Fatalf("seed %d t=%d node %d: pending response to %v after its Propose was seen", seed, at, i,
						Proposition{Kind: r.kind, Num: nd.live})
				}
			}
		}
		// sentResp checks what pump puts on the wire, as it goes out.
		sentResp := func(i int, at int64, c *Combined) {
			if r := c.Relay; r != nil && r.Prop.Num != nodes[i].live {
				t.Fatalf("seed %d t=%d node %d: broadcast a response to %v, live number is %v", seed, at, i, r.Prop, nodes[i].live)
			}
		}
		res := sim.Run(sim.Config{
			Graph:  g,
			Inputs: inputs,
			Factory: func(cfg amac.NodeConfig) amac.Algorithm {
				nd := base(cfg).(*Node)
				nodes[cfg.ID-1] = nd
				return nd
			},
			Scheduler: sim.NewRandom(4, seed),
			Observer: func(ev sim.Event) {
				// Deliver and ack events are reported before the handler
				// runs: the node is as its previous handler left it.
				switch ev.Kind {
				case sim.EventDeliver, sim.EventAck:
					check(ev.Node, ev.Time)
				case sim.EventBroadcast:
					sentResp(ev.Node, ev.Time, ev.Message.(*Combined))
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

// TestSupersededProposerRetriesWithinBudget: under the flood transport no
// refusal tells a proposer its round lost; seeing a higher number does.
// The first such sighting ends the round and starts the next above it (the
// node still believes itself leader and has one number left), the second
// exhausts the two-numbers budget and leaves the node idle for the
// detector's re-arm or the next change event.
func TestSupersededProposerRetriesWithinBudget(t *testing.T) {
	nd := newNode(0, Config{N: 5, Flood: true})
	nd.Start(&stubAPI{id: 3})
	// Alone in its membership the node is its own leader; a change
	// notification makes it propose.
	nd.OnReceive(&Combined{Change: &omega.ChangeMsg{T: 1, ID: 9}})
	if want := (ProposalNum{Tag: 1, ID: 3}); nd.prop.phase != propPreparing || nd.live != want {
		t.Fatalf("after the change: phase %d, live %v, want preparing, live %v", nd.prop.phase, nd.live, want)
	}
	rival := func(tag int64) *Combined {
		return &Combined{Relay: &RelayMsg{
			Prop:     Proposition{Kind: Prepare, Num: ProposalNum{Tag: tag, ID: 2}},
			Acceptor: 4,
		}}
	}
	nd.OnReceive(rival(5))
	if want := (ProposalNum{Tag: 6, ID: 3}); nd.prop.phase != propPreparing || nd.live != want {
		t.Fatalf("after the first rival: phase %d, live %v, want a fresh round %v", nd.prop.phase, nd.live, want)
	}
	if len(nd.fl.cycle) != 0 || nd.fl.promises != 1 {
		t.Fatalf("after the first rival: %d pending responses, %d promises; want the rival's response dropped and only the node's own promise counted",
			len(nd.fl.cycle), nd.fl.promises)
	}
	nd.OnReceive(rival(8))
	if want := (ProposalNum{Tag: 8, ID: 2}); nd.prop.phase != propIdle || nd.live != want {
		t.Fatalf("after the second rival: phase %d, live %v, want idle with live %v", nd.prop.phase, nd.live, want)
	}
	if len(nd.fl.cycle) != 1 {
		t.Fatalf("idle node holds %d pending responses, want the rival's one relayed", len(nd.fl.cycle))
	}
}

// TestDecidedNodeStopsQueueing: a decided node's pump sends only the decide
// flood, so a fresh relayed response it hears afterwards is deduplicated
// and tallied as before but no longer queued for the relay.
func TestDecidedNodeStopsQueueing(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			nd := newNode(0, Config{N: 8, Flood: tr.flood})
			nd.Start(&stubAPI{id: 3})
			accept := func(acceptor amac.NodeID) *Combined {
				return &Combined{Relay: &RelayMsg{
					Prop:     Proposition{Kind: Propose, Num: ProposalNum{Tag: 1, ID: 9}},
					Acceptor: acceptor,
				}}
			}
			nd.OnReceive(accept(1))
			if len(nd.fl.cycle) != 1 {
				t.Fatalf("an undecided node queued %d responses, want 1", len(nd.fl.cycle))
			}
			nd.OnReceive(&Combined{Decide: &DecideMsg{Val: 1}})
			nd.OnReceive(accept(2))
			if f := &nd.fl; len(f.cycle) != 1 || f.accepts != 2 {
				t.Fatalf("a decided node holds %d pending responses and %d accepts, want 1 and 2", len(f.cycle), f.accepts)
			}
		})
	}
}

// TestFloodSlowerThanTreeOnBottleneck is E7's contrast as a one-variable
// A/B: on a hub topology the same node, flooding every acceptor response
// individually, must take visibly longer than aggregating them up the
// leader's tree at the same n and D.
func TestFloodSlowerThanTreeOnBottleneck(t *testing.T) {
	g := graph.StarOfLines(24, 2) // 49 nodes, diameter 4
	inputs := mixedInputs(g.N())
	decideAt := func(flood bool) int64 {
		res := sim.Run(sim.Config{
			Graph:     g,
			Inputs:    inputs,
			Factory:   NewFactory(Config{N: g.N(), Flood: flood}),
			Scheduler: sim.Synchronous{},
		})
		if rep := consensus.Check(inputs, res); !rep.OK() {
			t.Fatalf("flood=%v: %v", flood, rep.Errors)
		}
		return res.MaxDecideTime
	}
	tFlood, tTree := decideAt(true), decideAt(false)
	if float64(tFlood) < 1.5*float64(tTree) {
		t.Fatalf("flood=%d tree=%d: expected the flood transport to be clearly slower", tFlood, tTree)
	}
}
