package sim

import (
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/graph"
)

// The dual-graph (unreliable link) model variant: broadcasts must reach
// reliable neighbors and may reach unreliable ones.

func TestUnreliableDelivery(t *testing.T) {
	// Reliable: line 0-1. Unreliable: edge {0,2} (node 2 is otherwise
	// disconnected from 0... it must still be in the topology; use a
	// 3-line 0-1-2 with unreliable chord {0,2}).
	g := graph.Line(3)
	u := graph.Build(3, [][2]int{{0, 2}})

	countFrom0To2 := 0
	run := func(p float64) {
		countFrom0To2 = 0
		Run(Config{
			Graph:      g,
			Unreliable: u,
			Inputs:     inputs(0, 0, 0),
			Factory:    onceFactory,
			Scheduler:  NewLossy(Synchronous{}, p, 9),
			Observer: func(ev Event) {
				if ev.Kind == EventDeliver && ev.Peer == 0 && ev.Node == 2 {
					countFrom0To2++
				}
			},
		})
	}
	run(0)
	if countFrom0To2 != 0 {
		t.Fatalf("p=0: %d deliveries over the unreliable edge", countFrom0To2)
	}
	run(1)
	if countFrom0To2 != 1 {
		t.Fatalf("p=1: %d deliveries over the unreliable edge, want 1", countFrom0To2)
	}
}

func TestUnreliableNeverBlocksAck(t *testing.T) {
	// Reliable deliveries and the ack must be unaffected by the overlay.
	g := graph.Line(3)
	u := graph.Build(3, [][2]int{{0, 2}})
	res := Run(Config{
		Graph:      g,
		Unreliable: u,
		Inputs:     inputs(1, 1, 1),
		Factory:    onceFactory,
		Scheduler:  NewLossy(Synchronous{}, 0.5, 3),
	})
	if !allDecided(res) {
		t.Fatal("reliable substrate failed under the overlay")
	}
	if res.MaxDecideTime != 1 {
		t.Fatalf("decision time %d, want 1 (synchronous base)", res.MaxDecideTime)
	}
}

func TestUnreliableValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"node count mismatch", func() Config {
			return Config{
				Graph:      graph.Line(3),
				Unreliable: graph.Build(2, nil),
				Inputs:     inputs(0, 0, 0),
				Factory:    onceFactory,
				Scheduler:  Synchronous{},
			}
		}},
		{"overlapping edge", func() Config {
			u := graph.Build(3, [][2]int{{0, 1}}) // also a reliable edge
			return Config{
				Graph:      graph.Line(3),
				Unreliable: u,
				Inputs:     inputs(0, 0, 0),
				Factory:    onceFactory,
				Scheduler:  Synchronous{},
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			Run(tc.cfg())
		})
	}
}

func TestPlanMayNotInventRecipients(t *testing.T) {
	// Plans are positional, so delivering to a non-neighbor means growing
	// the slot buffer past the recipient list — which must be rejected.
	bad := planFunc{f: func(b Broadcast, p *Plan) {
		for i := range b.Neighbors {
			p.Recv[i] = b.Now + 1
		}
		p.Recv = append(p.Recv, b.Now+1) // a 99th slot with no recipient
		p.Ack = b.Now + 1
	}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(Config{
		Graph:     graph.Line(100),
		Inputs:    make([]amac.Value, 100),
		Factory:   onceFactory,
		Scheduler: bad,
	})
}

// TestMidBroadcastCrashDropsPendingUnreliable pins the crash x unreliable
// interaction: a sender that crashes mid-broadcast loses exactly the
// deliveries (reliable AND unreliable) planned after its crash time, plus
// the ack — deliveries planned at or before the crash time still land.
func TestMidBroadcastCrashDropsPendingUnreliable(t *testing.T) {
	// Base: line 0-1-2-3. Unreliable overlay: chords {0,2} and {0,3}.
	// The scheduler delivers node 0's broadcast to its reliable neighbor
	// 1 at t=1, then over the unreliable chords to 2 at t=2 and 3 at
	// t=3, acking at t=4. Node 0 crashes at t=2: the t=1 and t=2
	// deliveries happen (a crash at T takes effect strictly after T),
	// the t=3 unreliable delivery and the ack are lost.
	g := graph.Line(4)
	u := graph.Build(4, [][2]int{{0, 2}, {0, 3}})
	sched := planFunc{f: func(b Broadcast, p *Plan) {
		for i := range b.Neighbors {
			p.Recv[i] = b.Now + 1
		}
		for i := range b.Unreliable {
			p.Recv[len(b.Neighbors)+i] = b.Now + 2 + int64(i)
		}
		p.Ack = b.Now + 2 + int64(len(b.Unreliable))
	}}

	recorders := make([]*recorderAlg, 4)
	factory := func(cfg amac.NodeConfig) amac.Algorithm {
		i := int(cfg.ID) - 1
		if i == 0 {
			return &onceAlg{input: cfg.Input}
		}
		recorders[i] = &recorderAlg{}
		return recorders[i]
	}
	res := Run(Config{
		Graph:      g,
		Unreliable: u,
		Inputs:     inputs(0, 0, 0, 0),
		Factory:    factory,
		Scheduler:  sched,
		Crashes:    []Crash{{Node: 0, At: 2}},
	})

	from0 := func(i int) int {
		n := 0
		for _, m := range recorders[i].got {
			if msg, ok := m.(testMsg); ok && msg.from == 1 {
				n++
			}
		}
		return n
	}
	if from0(1) != 1 {
		t.Fatalf("reliable neighbor 1 got %d messages from node 0, want 1 (delivered at t=1, before the crash)", from0(1))
	}
	if from0(2) != 1 {
		t.Fatalf("unreliable chord {0,2} delivered %d messages, want 1 (t=2 is not after the crash at 2)", from0(2))
	}
	if from0(3) != 0 {
		t.Fatalf("unreliable chord {0,3} delivered %d messages, want 0 (planned at t=3, after the crash)", from0(3))
	}
	if res.Acks != 0 {
		t.Fatalf("acks=%d, want 0 (the mid-broadcast crash loses the ack)", res.Acks)
	}
	if res.Decided[0] {
		t.Fatal("crashed sender decided")
	}
	if !res.Crashed[0] {
		t.Fatal("node 0 not marked crashed")
	}
}

func TestLossyDeterministic(t *testing.T) {
	g := graph.Ring(6)
	u := graph.RandomOverlay(g, 4, 2)
	run := func() *Result {
		return Run(Config{
			Graph:      g,
			Unreliable: u,
			Inputs:     inputs(0, 1, 0, 1, 0, 1),
			Factory:    onceFactory,
			Scheduler:  NewLossy(NewRandom(5, 7), 0.5, 7),
		})
	}
	a, b := run(), run()
	if a.Events != b.Events || a.Deliveries != b.Deliveries {
		t.Fatalf("lossy runs diverged: %d/%d vs %d/%d events/deliveries", a.Events, a.Deliveries, b.Events, b.Deliveries)
	}
}

func TestLossyValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewLossy(nil, 0.5, 1) },
		func() { NewLossy(Synchronous{}, -0.1, 1) },
		func() { NewLossy(Synchronous{}, 1.1, 1) },
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
