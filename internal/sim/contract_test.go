package sim_test

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/baseline/gatherall"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/core/twophase"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
)

// checked wraps one node's algorithm, and the API handed to it, in the amac
// contract as the algorithm sees it: Start once and first; the node's
// handlers never overlap; Broadcast reports true iff nothing is in flight
// (probed: every accepted broadcast is followed by a second one that must be
// refused); exactly one OnAck per accepted broadcast, carrying that message.
type checked struct {
	amac.API
	t        *testing.T
	inner    amac.Algorithm
	busy     atomic.Bool
	started  bool
	inflight amac.Message
}

func contract(t *testing.T, f amac.Factory) amac.Factory {
	return func(nc amac.NodeConfig) amac.Algorithm { return &checked{t: t, inner: f(nc)} }
}

func (c *checked) enter(handler string) (leave func()) {
	if !c.busy.CompareAndSwap(false, true) {
		c.t.Errorf("%s overlaps another handler of the same node", handler)
	}
	if c.started == (handler == "Start") {
		c.t.Errorf("%s called with started=%v", handler, c.started)
	}
	return func() { c.busy.Store(false) }
}

func (c *checked) Start(api amac.API) {
	defer c.enter("Start")()
	c.started, c.API = true, api
	c.inner.Start(c)
}

func (c *checked) OnReceive(m amac.Message) {
	defer c.enter("OnReceive")()
	c.inner.OnReceive(m)
}

func (c *checked) OnAck(m amac.Message) {
	defer c.enter("OnAck")()
	if c.inflight == nil || !reflect.DeepEqual(m, c.inflight) {
		c.t.Errorf("OnAck(%v) with %v in flight", m, c.inflight)
	}
	c.inflight = nil
	c.inner.OnAck(m)
}

func (c *checked) Broadcast(m amac.Message) bool {
	ok := c.API.Broadcast(m)
	if ok != (c.inflight == nil) {
		c.t.Errorf("Broadcast reported %v with %v in flight", ok, c.inflight)
	}
	if ok {
		c.inflight = m
		if c.API.Broadcast(m) {
			c.t.Errorf("a second Broadcast was accepted with the first in flight")
		}
	}
	return ok
}

// alternating returns the inputs 0, 1, 0, … of n nodes, amacsim's default.
func alternating(n int) []amac.Value {
	inputs := make([]amac.Value, n)
	for i := range inputs {
		inputs[i] = amac.Value(i % 2)
	}
	return inputs
}

// TestSubstrateContract is the test of the claim that the algorithms run
// unchanged on a substrate that keeps the amac contract: each row runs
// through the checked decorator on the sequential loop, and again with every
// bucket forced into parallel phases of 2 and 3 workers, where handlers of
// different nodes run at once and the wpaxos rows share one CountAudit
// between them. Every run must satisfy consensus.Check.
func TestSubstrateContract(t *testing.T) {
	wpaxosAudited := func(n int, audit *wpaxos.CountAudit) amac.Factory {
		return wpaxos.NewFactory(wpaxos.Config{N: n, Audit: audit})
	}
	rows := []struct {
		name    string
		g       *graph.Graph
		inputs  []amac.Value
		factory func(n int, audit *wpaxos.CountAudit) amac.Factory
		value   amac.Value // the decision the inputs force, or -1
	}{
		{"twophase clique:6", graph.Clique(6), alternating(6), func(int, *wpaxos.CountAudit) amac.Factory { return twophase.Factory }, -1},
		{"wpaxos line:5", graph.Line(5), alternating(5), wpaxosAudited, -1},
		{"wpaxos grid:3x3", graph.Grid(3, 3), alternating(9), wpaxosAudited, -1},
		{"gatherall ring:7", graph.Ring(7), alternating(7), func(n int, _ *wpaxos.CountAudit) amac.Factory { return gatherall.NewFactory(n) }, 0},
		{"twophase n=1", graph.Clique(1), []amac.Value{1}, func(int, *wpaxos.CountAudit) amac.Factory { return twophase.Factory }, 1},
	}
	for _, r := range rows {
		for _, w := range []int{1, 2, 3} {
			name := "sequential"
			if w > 1 {
				name = fmt.Sprintf("w=%d", w)
			}
			t.Run(r.name+"/"+name, func(t *testing.T) {
				audit := wpaxos.NewCountAudit()
				e := sim.NewEngine(sim.Config{Graph: r.g, Inputs: r.inputs, Scheduler: sim.NewRandom(4, 1),
					Factory: contract(t, r.factory(r.g.N(), audit))})
				sim.ForcePhases(e, w)
				res := e.Run()
				if phased := sim.PhasesRun(e) > 0; phased != (w > 1 && r.g.N() > 1) {
					t.Fatalf("%d phases ran at width %d on %d nodes", sim.PhasesRun(e), w, r.g.N())
				}
				if len(res.Violations) != 0 {
					t.Errorf("simulator violations: %v", res.Violations)
				}
				rep := consensus.Check(r.inputs, res)
				if !rep.OK() || (r.value >= 0 && rep.Value != r.value) {
					t.Fatalf("decided %d, errors %v", rep.Value, rep.Errors)
				}
				if v := audit.Violations(); len(v) != 0 {
					t.Fatalf("Lemma 4.2 violated: %v", v)
				}
				if res.Broadcasts == 0 || res.Discards < res.Broadcasts {
					t.Fatalf("%d broadcasts, %d discards: every accepted broadcast was probed with one that must be discarded", res.Broadcasts, res.Discards)
				}
			})
		}
	}
}
