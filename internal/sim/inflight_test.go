package sim_test

import (
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/sim"
)

// The event queue stores no message: a delivery reads the sender's
// in-flight message at the time it is processed. This test pins what makes
// that the message the delivery was planned with — one broadcast
// outstanding per node, every delivery of it at or before its ack — from
// outside the engine, across the crash pattern that abandons broadcasts
// half-way, the overlays whose edges deliver only sometimes and the
// schedulers that stretch, reorder and gate plans.

// stamp names one broadcast: its sender's id and that node's broadcast
// sequence number.
type stamp struct {
	from amac.NodeID
	k    int
}

func (stamp) IDCount() int { return 1 }

// stamper broadcasts stamp 0, then on every ack the next one, rounds times.
// It never decides; the run ends when the queue drains.
type stamper struct {
	api    amac.API
	k      int
	rounds int
}

func (s *stamper) Start(api amac.API) {
	s.api = api
	api.Broadcast(stamp{from: api.ID(), k: 0})
}

func (s *stamper) OnReceive(amac.Message) {}

func (s *stamper) OnAck(amac.Message) {
	if s.k++; s.k < s.rounds {
		s.api.Broadcast(stamp{from: s.api.ID(), k: s.k})
	}
}

// bcastKey identifies a broadcast by node index and sequence number.
type bcastKey struct{ sender, seq int }

// plannedBcast is one broadcast as the scheduler planned it.
type plannedBcast struct {
	recv      map[int]int64 // receiver -> planned delivery time
	ack       int64
	delivered map[int]bool
	acked     bool
}

// planLog wraps a scheduler and keeps every plan it produced.
type planLog struct {
	sim.Scheduler
	plans map[bcastKey]*plannedBcast
}

func (l *planLog) Plan(b sim.Broadcast, p *sim.Plan) {
	l.Scheduler.Plan(b, p)
	pb := &plannedBcast{recv: map[int]int64{}, ack: p.Ack, delivered: map[int]bool{}}
	for i, v := range b.Neighbors {
		pb.recv[v] = p.Recv[i]
	}
	for i, v := range b.Unreliable {
		if at := p.Recv[len(b.Neighbors)+i]; at != sim.NoDelivery {
			pb.recv[v] = at
		}
	}
	l.plans[bcastKey{b.Sender, b.Seq}] = pb
}

func TestDeliveryCarriesItsBroadcastsMessage(t *testing.T) {
	const (
		fack   = 4
		seed   = 5
		rounds = 6
	)
	g := graph.Grid(3, 4)
	n := g.N()
	crashes, err := harness.NewCrashes("midbroadcast", n, fack, seed)
	if err != nil {
		t.Fatal(err)
	}
	crashAt := map[int]int64{}
	for _, c := range crashes {
		crashAt[c.Node] = c.At
	}
	bases := []struct {
		name string
		mk   func() sim.Scheduler
	}{
		{"random", func() sim.Scheduler { return sim.NewRandom(fack, seed) }},
		{"edgeorder", func() sim.Scheduler { return &sim.EdgeOrder{MaxDegree: 4} }},
		{"gate", func() sim.Scheduler {
			return sim.Gate{Base: sim.NewRandom(fack, seed), Gated: map[int]bool{1: true, 6: true}, Until: 9}
		}},
		{"slowsubset", func() sim.Scheduler {
			return sim.SlowSubset{Base: sim.NewRandom(fack, seed), Slow: map[int]bool{2: true, 7: true}, Factor: 5}
		}},
	}
	for _, overlay := range []string{"chords", "randomextra:0.3"} {
		unreliable, deliverP, err := harness.NewOverlay(overlay, g, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range bases {
			t.Run(overlay+"/"+base.name, func(t *testing.T) {
				log := &planLog{Scheduler: sim.NewLossy(base.mk(), deliverP, seed), plans: map[bcastKey]*plannedBcast{}}
				sent := map[bcastKey]amac.Message{} // from EventBroadcast
				seq := make([]int, n)               // broadcasts observed per node
				cfg := sim.Config{
					Graph:      g,
					Unreliable: unreliable,
					Inputs:     make([]amac.Value, n),
					Scheduler:  log,
					Crashes:    crashes,
					Factory: func(amac.NodeConfig) amac.Algorithm {
						return &stamper{rounds: rounds}
					},
				}
				cfg.Observer = func(ev sim.Event) {
					switch ev.Kind {
					case sim.EventBroadcast:
						sent[bcastKey{ev.Node, seq[ev.Node]}] = ev.Message
						seq[ev.Node]++
					case sim.EventDeliver:
						st, ok := ev.Message.(stamp)
						if !ok {
							t.Fatalf("t=%d: delivery to %d from %d carries %#v, not a stamp", ev.Time, ev.Node, ev.Peer, ev.Message)
						}
						key := bcastKey{ev.Peer, st.k}
						pb := log.plans[key]
						if pb == nil || sent[key] != ev.Message {
							t.Fatalf("t=%d: delivery to %d from %d carries %+v; broadcast %v sent %+v", ev.Time, ev.Node, ev.Peer, st, key, sent[key])
						}
						if at, planned := pb.recv[ev.Node]; !planned || at != ev.Time {
							t.Fatalf("t=%d: delivery of %v to %d, planned for t=%d (planned at all: %v)", ev.Time, key, ev.Node, at, planned)
						}
						if pb.acked {
							t.Fatalf("t=%d: delivery of %v to %d after its ack at t=%d", ev.Time, key, ev.Node, pb.ack)
						}
						if pb.delivered[ev.Node] {
							t.Fatalf("t=%d: %v delivered to %d twice", ev.Time, key, ev.Node)
						}
						pb.delivered[ev.Node] = true
					case sim.EventAck:
						st := ev.Message.(stamp)
						key := bcastKey{ev.Node, st.k}
						pb := log.plans[key]
						if pb == nil || sent[key] != ev.Message || pb.ack != ev.Time || pb.acked {
							t.Fatalf("t=%d: ack of %v carries %+v; planned %+v", ev.Time, key, st, pb)
						}
						pb.acked = true
					}
				}
				res := sim.Run(cfg)
				if !res.Quiescent {
					t.Fatalf("run did not drain: %+v", res)
				}
				// Nothing planned went missing either: a delivery or ack is
				// lost only to a crash cutoff before its time.
				alive := func(v int, at int64) bool {
					c, crashed := crashAt[v]
					return !crashed || c >= at
				}
				lost := 0
				for key, pb := range log.plans {
					for v, at := range pb.recv {
						if want := alive(key.sender, at) && alive(v, at); pb.delivered[v] != want {
							t.Errorf("%v -> %d planned at t=%d: delivered=%v, want %v", key, v, at, pb.delivered[v], want)
						} else if !want {
							lost++
						}
					}
					if want := alive(key.sender, pb.ack); pb.acked != want {
						t.Errorf("%v ack planned at t=%d: acked=%v, want %v", key, pb.ack, pb.acked, want)
					}
				}
				if lost == 0 {
					t.Error("no planned delivery was lost to the mid-broadcast crash: the test is not exercising it")
				}
				if len(log.plans) <= n {
					t.Errorf("only %d broadcasts for %d nodes: no node re-broadcast", len(log.plans), n)
				}
			})
		}
	}
}
