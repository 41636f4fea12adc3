package sim

import (
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/metrics"
)

// BenchmarkBroadcastPlan measures the engine's broadcast/delivery hot path:
// every node rebroadcasts on each ack, so the run is a steady stream of
// plan/validate/deliver cycles and the fixed engine setup is amortized over
// thousands of broadcasts. allocs/op is the headline number — the plan
// buffer and the queue's bucket arrays are supposed to keep the steady
// state free of per-broadcast allocations.
func BenchmarkBroadcastPlan(b *testing.B) {
	benchBroadcast(b, graph.Clique(16), nil, nil)
}

// BenchmarkBroadcastPlanUnreliable is the same workload under a dual-graph
// configuration (sparse reliable ring plus random unreliable chords), so
// the unreliable branch of the planning path is costed too.
func BenchmarkBroadcastPlanUnreliable(b *testing.B) {
	g := graph.Ring(16)
	benchBroadcast(b, g, graph.RandomOverlay(g, 24, 7), nil)
}

// BenchmarkBroadcastPlanMetrics and BenchmarkBroadcastPlanUnreliableMetrics
// are the flight-recorder-on variants of the two pinned broadcast benches:
// the same workloads with a live metrics.Registry installed, so the cost
// of the instrumented hot path is measured next to the pinned
// metrics-off numbers. The overhead contract (see internal/metrics) is a
// fixed number of registrations per Reset — O(registered slots), never
// O(events) — so allocs/op must exceed the pins only by a constant.
func BenchmarkBroadcastPlanMetrics(b *testing.B) {
	benchBroadcast(b, graph.Clique(16), nil, metrics.New())
}

func BenchmarkBroadcastPlanUnreliableMetrics(b *testing.B) {
	g := graph.Ring(16)
	benchBroadcast(b, g, graph.RandomOverlay(g, 24, 7), metrics.New())
}

// BenchmarkBroadcastPlanLarge is the large-n tier of the broadcast bench:
// the same chatter workload on the sparse degree-bounded families worth
// simulating at n=10^3..10^4 (seeded random 8-regular expanders and
// Octopus-style multi-pod meshes). Setup — topology construction, engine
// Reset, per-node algorithm allocation — happens outside the timer, so
// the measured region is the steady-state event loop alone and allocs/op
// must stay independent of n (the bucket arrays and plan buffer, not the
// allocator, feed every broadcast).
func BenchmarkBroadcastPlanLarge(b *testing.B) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"expander-1024", graph.Expander(1024, 8, 1)},
		{"expander-4096", graph.Expander(4096, 8, 1)},
		{"pods-1024", graph.Pods(16, 64, 4, 1)},
		{"pods-4096", graph.Pods(64, 64, 4, 1)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			ins := make([]amac.Value, tc.g.N())
			// One message boxed up front and shared by every node: the
			// timed region must measure the engine's event loop, not n
			// interface conversions in the test algorithm.
			msg := amac.Message(testMsg{tag: "chatter"})
			factory := func(amac.NodeConfig) amac.Algorithm { return &chatterAlg{msg: msg} }
			e := NewEngine(Config{
				Graph:     tc.g,
				Inputs:    ins,
				Factory:   factory,
				Scheduler: NewRandom(8, 42),
				MaxEvents: 50_000,
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e.Reset(Config{
					Graph:     tc.g,
					Inputs:    ins,
					Factory:   factory,
					Scheduler: NewRandom(8, 42),
					MaxEvents: 50_000,
				})
				b.StartTimer()
				res := e.Run()
				if !res.Cutoff {
					b.Fatalf("chatter workload terminated after %d events", res.Events)
				}
				b.ReportMetric(float64(res.Broadcasts), "broadcasts/op")
			}
		})
	}
}

// BenchmarkWarmRunClique is the engine layer's own row for the single-hop
// decide workload: one engine on clique:1024 under Random(4, 7), every node
// broadcasting once at Start and deciding at its ack, StopWhenDecided. All
// of the ~1 M events are engine work (queue, plan validation, dispatch to
// a handler that does nothing), so ns/event is the engine's per-event
// cost. Nodes come from one slice and share one boxed message, the
// scheduler is re-seeded rather than rebuilt, and one untimed op warms the
// bucket arrays, so a warm Reset+Run allocates nothing: an allocation per
// op means a Reset left queue state behind for the next run to grow.
func BenchmarkWarmRunClique(b *testing.B) {
	g := graph.Clique(1024)
	ins := make([]amac.Value, g.N())
	msg := amac.Message(testMsg{tag: "once"})
	nodes := make([]onceAlg, g.N())
	sched := NewRandom(4, 7)
	cfg := Config{
		Graph:  g,
		Inputs: ins,
		Factory: func(nc amac.NodeConfig) amac.Algorithm {
			a := &nodes[nc.ID-1]
			*a = onceAlg{input: nc.Input, msg: msg}
			return a
		},
		Scheduler:       sched,
		StopWhenDecided: true,
	}
	e := NewEngine(cfg)
	warm := e.Run()
	if !warm.AllDecided() {
		b.Fatalf("warm-up run did not decide (events %d)", warm.Events)
	}
	events := warm.Events
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.rng.Seed(7)
		e.Reset(cfg)
		if res := e.Run(); res.Events != events || !res.AllDecided() {
			b.Fatalf("warm run processed %d events (decided %v), warm-up %d", res.Events, res.AllDecided(), events)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

func benchBroadcast(b *testing.B, g, u *graph.Graph, reg *metrics.Registry) {
	ins := make([]amac.Value, g.N())
	factory := func(amac.NodeConfig) amac.Algorithm { return &chatterAlg{} }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sched Scheduler = NewRandom(8, 42)
		if u != nil {
			sched = NewLossy(sched, 0.5, 42)
		}
		res := Run(Config{
			Graph:      g,
			Unreliable: u,
			Inputs:     ins,
			Factory:    factory,
			Scheduler:  sched,
			MaxEvents:  50_000,
			Metrics:    reg,
		})
		if !res.Cutoff {
			b.Fatalf("chatter workload terminated after %d events", res.Events)
		}
		b.ReportMetric(float64(res.Broadcasts), "broadcasts/op")
	}
}
