package sim_test

import (
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
)

// decideOnAck broadcasts once at start and decides its input on the ack.
type decideOnAck struct {
	api   amac.API
	input amac.Value
}

type hello struct{}

func (hello) IDCount() int { return 0 }

func (a *decideOnAck) Start(api amac.API) {
	a.api = api
	api.Broadcast(hello{})
}

func (a *decideOnAck) OnReceive(amac.Message) {}
func (a *decideOnAck) OnAck(amac.Message)     { a.api.Decide(a.input) }

// lateNode2 plans every broadcast for t=1, except node 2's for t=3.
type lateNode2 struct{}

func (lateNode2) Fack() int64 { return 10 }

func (lateNode2) Plan(b sim.Broadcast, p *sim.Plan) {
	at := int64(1)
	if b.Sender == 2 {
		at = 3
	}
	for i := range p.Recv {
		p.Recv[i] = at
	}
	p.Ack = at
}

// TestStopOwesOnlyCrashFreeNodes pins who the stop rule waits for
// (Engine.owes): the nodes with no scheduled crash, the same nodes the
// verdict judges. On clique:3, nodes 0 and 1 broadcast and decide at t=1;
// node 2 is scheduled to crash at t=2 and its broadcast is planned for
// t=3. The run stops on the last event of t=1, with node 2's deliveries
// and ack still queued, and the verdict holds: node 2 is marked crashed
// and owes nothing.
func TestStopOwesOnlyCrashFreeNodes(t *testing.T) {
	ins := []amac.Value{0, 0, 0}
	res := sim.Run(sim.Config{
		Graph:  graph.Clique(3),
		Inputs: ins,
		Factory: func(cfg amac.NodeConfig) amac.Algorithm {
			return &decideOnAck{input: cfg.Input}
		},
		Scheduler: lateNode2{},
		Crashes:   []sim.Crash{{Node: 2, At: 2}},
	})
	// t=1: four deliveries and two acks; node 2's t=3 events are not run.
	if res.Events != 6 || res.Quiescent || res.Time != 1 || res.Deliveries != 4 || res.Acks != 2 {
		t.Fatalf("events=%d quiescent=%v time=%d deliveries=%d acks=%d, want 6/false/1/4/2",
			res.Events, res.Quiescent, res.Time, res.Deliveries, res.Acks)
	}
	if !res.Crashed[2] {
		t.Fatalf("crashed=%v, want node 2 crashed", res.Crashed)
	}
	if rep := consensus.Check(ins, res); !rep.OK() {
		t.Fatalf("verdict: %v", rep.Errors)
	}
}
