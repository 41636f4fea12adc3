package netmac

import (
	"bytes"
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/baseline/gatherall"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/core/twophase"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/live"
	"github.com/absmac/absmac/internal/sim"
)

var registerOnce sync.Once

func register() {
	registerOnce.Do(func() {
		RegisterMessages(
			twophase.Phase1{}, twophase.Phase2{},
			&wpaxos.Combined{},
			gatherall.PairMsg{},
			beat{},
		)
	})
}

func mixed(n int) []amac.Value {
	inputs := make([]amac.Value, n)
	for i := range inputs {
		inputs[i] = amac.Value(i % 2)
	}
	return inputs
}

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

// outcome is what every substrate reports of a run.
type outcome struct {
	report               *consensus.Report
	broadcasts, discards int64
}

// TestSubstrateContract is the one test of the claim that the algorithms
// run unchanged on every substrate: each row runs on the simulator, on the
// wall-clock runtime over its timer MAC and over the UDP MAC, through the
// checked decorator, and must satisfy consensus.Check. The UDP column is
// also the regression for the reader's enqueue-then-ack order: with the
// wire ack sent first, the runtime's countdown fails these rows with
// live.ErrContract within a few -count iterations.
func TestSubstrateContract(t *testing.T) {
	register()
	substrates := []struct {
		name string
		run  func(t *testing.T, g *graph.Graph, inputs []amac.Value, f amac.Factory) outcome
	}{
		{"sim", func(t *testing.T, g *graph.Graph, inputs []amac.Value, f amac.Factory) outcome {
			res := sim.Run(sim.Config{Graph: g, Inputs: inputs, Factory: f, Scheduler: sim.NewRandom(4, 1)})
			if len(res.Violations) != 0 {
				t.Errorf("simulator violations: %v", res.Violations)
			}
			return outcome{consensus.Check(inputs, res), int64(res.Broadcasts), int64(res.Discards)}
		}},
		{"timer", func(t *testing.T, g *graph.Graph, inputs []amac.Value, f amac.Factory) outcome {
			res, err := live.Run(context.Background(), live.Config{Graph: g, Inputs: inputs, Factory: f, Fack: 2 * time.Millisecond, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			return outcome{res.Report(inputs), res.Broadcasts, res.Discards}
		}},
		{"udp", func(t *testing.T, g *graph.Graph, inputs []amac.Value, f amac.Factory) outcome {
			res, err := Run(context.Background(), live.Config{Graph: g, Inputs: inputs, Factory: f}, 2*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if g.N() > 1 && (res.PacketsSent == 0 || res.BytesSent == 0) {
				t.Error("no wire traffic counted")
			}
			if res.Dropped != 0 {
				t.Errorf("%d datagrams dropped on a run nobody interfered with", res.Dropped)
			}
			return outcome{res.Report(inputs), res.Broadcasts, res.Discards}
		}},
	}
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
		{"twophase clique:6", graph.Clique(6), mixed(6), func(int, *wpaxos.CountAudit) amac.Factory { return twophase.Factory }, -1},
		{"wpaxos line:5", graph.Line(5), mixed(5), wpaxosAudited, -1},
		{"wpaxos grid:3x3", graph.Grid(3, 3), mixed(9), wpaxosAudited, -1},
		{"gatherall ring:7", graph.Ring(7), mixed(7), func(n int, _ *wpaxos.CountAudit) amac.Factory { return gatherall.NewFactory(n) }, 0},
		{"twophase n=1", graph.Clique(1), []amac.Value{1}, func(int, *wpaxos.CountAudit) amac.Factory { return twophase.Factory }, 1},
	}
	for _, s := range substrates {
		for _, r := range rows {
			t.Run(s.name+"/"+r.name, func(t *testing.T) {
				audit := wpaxos.NewCountAudit()
				out := s.run(t, r.g, r.inputs, contract(t, r.factory(r.g.N(), audit)))
				if !out.report.OK() || (r.value >= 0 && out.report.Value != r.value) {
					t.Fatalf("decided %d, errors %v", out.report.Value, out.report.Errors)
				}
				if v := audit.Violations(); len(v) != 0 {
					t.Fatalf("Lemma 4.2 violated: %v", v)
				}
				if out.broadcasts == 0 || out.discards < out.broadcasts {
					t.Fatalf("%d broadcasts, %d discards: every accepted broadcast was probed with one that must be discarded", out.broadcasts, out.discards)
				}
			})
		}
	}
}

// stubborn never decides and always has a broadcast in flight.
type stubborn struct{ api amac.API }

func (s *stubborn) Start(api amac.API) {
	s.api = api
	api.Broadcast(beat{})
}
func (s *stubborn) OnReceive(amac.Message) {}
func (s *stubborn) OnAck(amac.Message)     { s.api.Broadcast(beat{}) }

// beat carries a field because gob refuses a struct without one.
type beat struct{ N int }

func (beat) IDCount() int { return 0 }

// patient is a node of a star whose hub (id 1) broadcasts once: a leaf
// sleeps in OnReceive, then counts its return and decides; the hub decides
// in OnAck, recording how many leaves had returned by then.
type patient struct {
	api             amac.API
	returned, atAck *atomic.Int64
}

func (p *patient) Start(api amac.API) {
	p.api = api
	if api.ID() == 1 {
		api.Broadcast(beat{})
	}
}

func (p *patient) OnReceive(amac.Message) {
	time.Sleep(20 * time.Millisecond)
	p.returned.Add(1)
	p.api.Decide(0)
}

func (p *patient) OnAck(amac.Message) {
	p.atAck.Store(p.returned.Load())
	p.api.Decide(0)
}

// TestAckWaitsForReceivers: over either MAC, the hub of star:4 gets its
// OnAck only after all three leaves have returned from OnReceive — the
// order the simulator has, and the one that lets a sender reuse its
// message once acked.
func TestAckWaitsForReceivers(t *testing.T) {
	register()
	for _, mac := range []struct {
		name string
		run  func(live.Config) (*live.Result, error)
	}{
		{"timer", func(cfg live.Config) (*live.Result, error) { return live.Run(context.Background(), cfg) }},
		{"udp", func(cfg live.Config) (*live.Result, error) {
			res, err := Run(context.Background(), cfg, 2*time.Millisecond)
			if res == nil {
				return nil, err
			}
			return &res.Result, err
		}},
	} {
		t.Run(mac.name, func(t *testing.T) {
			var returned, atAck atomic.Int64
			atAck.Store(-1)
			g := graph.Star(4)
			_, err := mac.run(live.Config{Graph: g, Inputs: mixed(g.N()), Fack: 2 * time.Millisecond,
				Factory: func(amac.NodeConfig) amac.Algorithm { return &patient{returned: &returned, atAck: &atAck} }})
			if err != nil {
				t.Fatal(err)
			}
			if got := atAck.Load(); got != 3 {
				t.Fatalf("the hub's OnAck saw %d of 3 leaves returned from OnReceive", got)
			}
		})
	}
}

// TestLastWireAckEndsTheBroadcast: the reader wakes the retransmission loop
// on the last neighbor's wire ack, so a broadcast nobody loses costs a
// loopback round trip rather than an RTO — two-phase on clique:2, two
// broadcasts per node, ends well inside one 300 ms RTO.
func TestLastWireAckEndsTheBroadcast(t *testing.T) {
	register()
	const rto = 300 * time.Millisecond
	inputs := mixed(2)
	res, err := Run(context.Background(), live.Config{Graph: graph.Clique(2), Inputs: inputs, Factory: twophase.Factory}, rto)
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Report(inputs); !rep.OK() {
		t.Fatal(rep.Errors)
	}
	if res.Elapsed >= rto {
		t.Fatalf("run took %v with %d retransmits, want under one RTO (%v)", res.Elapsed, res.Retransmits, rto)
	}
}

// TestTimeoutOverUDP: the runtime's timeout (tested on the runtime itself in
// internal/live) reaches this MAC's Close with retransmission loops and
// readers busy; Run must come back, with the runtime's error and the wire
// counters of the progress made.
func TestTimeoutOverUDP(t *testing.T) {
	register()
	res, err := Run(context.Background(), live.Config{
		Graph:   graph.Clique(3),
		Inputs:  mixed(3),
		Factory: func(amac.NodeConfig) amac.Algorithm { return &stubborn{} },
		Timeout: 50 * time.Millisecond,
	}, time.Millisecond)
	if !errors.Is(err, live.ErrTimeout) {
		t.Fatalf("err = %v, want live.ErrTimeout", err)
	}
	if res.Broadcasts == 0 || res.PacketsSent == 0 {
		t.Fatalf("result does not reflect the progress made: %+v", res)
	}
}

// TestValidationPanics: Run leaves validation to the runtime and must not
// touch the configuration (or open a socket) before the runtime has seen it —
// the panics are the runtime's, not nil dereferences here.
func TestValidationPanics(t *testing.T) {
	cases := []struct {
		name string
		cfg  live.Config
	}{
		{"nil graph", live.Config{}},
		{"bad inputs", live.Config{Graph: graph.Clique(2), Inputs: mixed(3), Factory: twophase.Factory}},
		{"nil factory", live.Config{Graph: graph.Clique(2), Inputs: mixed(2)}},
		{"bad ids", live.Config{Graph: graph.Clique(2), Inputs: mixed(2), Factory: twophase.Factory, IDs: []amac.NodeID{1, 2, 3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "live: ") {
					t.Fatalf("panic %q, want the runtime's validation message", msg)
				}
			}()
			Run(context.Background(), tc.cfg, 0)
		})
	}
}

// TestForeignDatagramsAreDropped fires, for the whole run, what any local
// process could send at a node's port: bytes that are not a packet, and
// well-formed data (intact and with a truncated payload) and acks that name
// a neighbor but come from another socket. Taken at their word they would
// steal node 1's first sequence number from it and release node 0's MAC ack
// early; instead the run decides and every one of them is counted.
func TestForeignDatagramsAreDropped(t *testing.T) {
	register()
	payload := encode(envelope{M: twophase.Phase1{}})
	foreign := [][]byte{
		[]byte("not a gob stream"),
		encode(packet{Node: 1, Seq: 1, Payload: payload}),
		encode(packet{Node: 1, Seq: 1, Payload: payload[:len(payload)/2]}),
		encode(packet{Ack: true, Node: 1, Seq: 1}),
		encode(packet{Node: 99, Seq: 1, Payload: payload}),
	}
	var u *udp
	var fired sync.WaitGroup
	inputs := mixed(4)
	cfg := live.Config{Graph: graph.Clique(4), Inputs: inputs, Factory: twophase.Factory}
	res, err := live.RunMAC(context.Background(), cfg, func(rt *live.Runtime) (mac live.MAC, err error) {
		if u, err = open(rt, cfg.Graph, 2*time.Millisecond); err != nil {
			return nil, err
		}
		stranger, err := net.DialUDP("udp", nil, u.nodes[0].conn.LocalAddr().(*net.UDPAddr))
		if err != nil {
			u.Close()
			return nil, err
		}
		fired.Add(1)
		go func() {
			defer fired.Done()
			defer stranger.Close()
			for {
				for _, d := range foreign {
					stranger.Write(d)
				}
				select {
				case <-rt.Done():
					return
				case <-time.After(200 * time.Microsecond):
				}
			}
		}()
		return u, nil
	})
	fired.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Report(inputs); !rep.OK() {
		t.Fatal(rep.Errors)
	}
	if got := u.dropped.Load(); got < int64(len(foreign)) {
		t.Fatalf("dropped = %d, want every foreign datagram counted (>= %d)", got, len(foreign))
	}
}

// TestUndecodablePayloadIsDropped: a payload that does not decode, from the
// right socket, is dropped like an undecodable packet — no panic, no wire
// ack, and the sequence number stays free for the intact retransmission.
func TestUndecodablePayloadIsDropped(t *testing.T) {
	register()
	peer := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	nd := &node{peers: []*net.UDPAddr{nil, peer}, delivered: make([]int64, 2)}
	payload := encode(envelope{M: twophase.Phase1{}})
	if (&udp{}).receive(nd, peer, encode(packet{Node: 1, Seq: 1, Payload: payload[:len(payload)/2]})) {
		t.Fatal("truncated payload accepted")
	}
	if nd.delivered[1] != 0 {
		t.Fatal("truncated payload consumed its sequence number")
	}
}

// TestMetricsExposition: the runtime's exposition over this MAC carries the
// runtime's counters and the wire-level ones.
func TestMetricsExposition(t *testing.T) {
	register()
	var buf bytes.Buffer
	inputs := mixed(5)
	res, err := Run(context.Background(), live.Config{
		Graph:           graph.Clique(5),
		Inputs:          inputs,
		Factory:         twophase.Factory,
		MetricsInterval: time.Millisecond,
		MetricsOut:      &buf,
	}, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report(inputs).OK() {
		t.Fatalf("run not OK: %v", res.Report(inputs).Errors)
	}
	out := buf.String()
	if out == "" {
		t.Skip("run finished before the first exposition tick")
	}
	for _, want := range []string{"elapsed=", "live_broadcasts ", "live_decided ", "net_packets_sent ", "net_bytes_sent ", "net_retransmits ", "net_dropped "} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition output missing %q:\n%s", want, out)
		}
	}
}
