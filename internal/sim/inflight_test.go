package sim_test

import (
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/sim"
)

// The event queue stores no message: a delivery reads the sender's
// in-flight message at the time it is processed. This test runs the oracle,
// which checks that this is the message the delivery was planned with, on
// broadcasts that each carry their own stamp, across the crash pattern that
// abandons broadcasts half-way, the overlays whose edges deliver only
// sometimes and the schedulers that stretch, reorder and gate plans.

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
				res, drops := sim.RunWatched(t, sim.Config{
					Graph:      g,
					Unreliable: unreliable,
					Inputs:     make([]amac.Value, n),
					Scheduler:  sim.NewLossy(base.mk(), deliverP, seed),
					Crashes:    crashes,
					Factory: func(amac.NodeConfig) amac.Algorithm {
						return &stamper{rounds: rounds}
					},
				})
				if !res.Quiescent {
					t.Fatalf("run did not drain: %+v", res)
				}
				if drops.Receiver+drops.Sender == 0 {
					t.Error("no planned delivery was lost to the mid-broadcast crash: the test is not exercising it")
				}
				if res.Broadcasts <= n {
					t.Errorf("only %d broadcasts for %d nodes: no node re-broadcast", res.Broadcasts, n)
				}
			})
		}
	}
}
