package live

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/core/twophase"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/graph"
)

// The algorithm-facing contract of the runtime, over this package's timer
// MAC as over the others, is checked by TestSubstrateContract in
// internal/netmac (the one package that can see all three substrates).
// The tests here are the runtime's own: what it does around a MAC.

func mixed(n int) []amac.Value {
	inputs := make([]amac.Value, n)
	for i := range inputs {
		inputs[i] = amac.Value(i % 2)
	}
	return inputs
}

// fakeMAC delivers and acks synchronously inside Broadcast, so a run over it
// needs no timers or sockets. targets, when set, replaces the sender's
// neighbor row as the list of nodes delivered to — the way to break the
// contract on purpose.
type fakeMAC struct {
	rt      *Runtime
	targets func(sender int, nbrs []int) []int
}

func (f *fakeMAC) Broadcast(sender int, m amac.Message) {
	to := f.rt.graph.Neighbors(sender)
	if f.targets != nil {
		to = f.targets(sender, to)
	}
	for _, v := range to {
		f.rt.Deliver(sender, v, m)
	}
	f.rt.Ack(sender)
}
func (f *fakeMAC) Close() {}

func runFake(ctx context.Context, cfg Config, targets func(int, []int) []int) (*Result, error) {
	return RunMAC(ctx, cfg, func(rt *Runtime) (MAC, error) {
		return &fakeMAC{rt: rt, targets: targets}, nil
	})
}

func TestFakeMACDecides(t *testing.T) {
	inputs := mixed(5)
	res, err := runFake(context.Background(), Config{Graph: graph.Clique(5), Inputs: inputs, Factory: twophase.Factory}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Report(inputs); !rep.OK() {
		t.Fatal(rep.Errors)
	}
}

// TestContractViolations: a MAC that does not give every neighbor the
// broadcast, once, before the ack ends the run with ErrContract naming the
// sender — whatever the algorithm would have made of it.
func TestContractViolations(t *testing.T) {
	for _, tc := range []struct {
		name    string
		targets func(sender int, nbrs []int) []int
		want    string
	}{
		{"ack with one delivery outstanding", func(_ int, nbrs []int) []int { return nbrs[1:] }, "acked with 1 deliveries outstanding"},
		{"delivers twice", func(_ int, nbrs []int) []int { return append([]int{nbrs[0]}, nbrs...) }, "more than once"},
		// As many deliveries as neighbors, so a per-sender count balances.
		{"delivers twice to one neighbor, never to another", func(_ int, nbrs []int) []int { return []int{nbrs[0], nbrs[0]} }, "more than once"},
		{"delivers to a non-neighbor", func(sender int, _ []int) []int { return []int{(sender + 2) % 4} }, "non-neighbor"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// ring:4, so that node i and node i+2 are not neighbors.
			res, err := runFake(context.Background(), Config{Graph: graph.Ring(4), Inputs: mixed(4), Factory: twophase.Factory}, tc.targets)
			if !errors.Is(err, ErrContract) || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "node ") {
				t.Fatalf("err = %v, want ErrContract naming the sender and %q", err, tc.want)
			}
			if res == nil {
				t.Fatal("no result beside the contract error")
			}
		})
	}
}

// recycler passes one node through, counting each broadcast that hands
// Broadcast another message than the node's first.
type recycler struct {
	amac.Algorithm
	amac.API
	first amac.Message
	fresh *atomic.Int64
}

func (r *recycler) Start(api amac.API) {
	r.API = api
	r.Algorithm.Start(r)
}

func (r *recycler) Broadcast(m amac.Message) bool {
	if r.first == nil {
		r.first = m
	} else if m != r.first {
		r.fresh.Add(1)
	}
	return r.API.Broadcast(m)
}

// TestPaxosFactoriesRecycleLiveMessages runs the two factories whose nodes
// own one message and refill it at every pump: a node's consecutive
// broadcasts are one pointer here too, which is safe only because the
// runtime holds each ack until the receivers' handlers have returned —
// under -race, an ack that overtook a handler is a reported data race.
func TestPaxosFactoriesRecycleLiveMessages(t *testing.T) {
	g := graph.Grid(3, 3)
	inputs := mixed(g.N())
	for _, tc := range []struct {
		name    string
		factory amac.Factory
	}{
		{"wpaxos", wpaxos.NewFactory(wpaxos.Config{N: g.N()})},
		{"floodpaxos", wpaxos.NewFactory(wpaxos.Config{N: g.N(), Flood: true})},
	} {
		var fresh atomic.Int64
		res, err := Run(context.Background(), Config{
			Graph:  g,
			Inputs: inputs,
			Factory: func(nc amac.NodeConfig) amac.Algorithm {
				return &recycler{Algorithm: tc.factory(nc), fresh: &fresh}
			},
			Fack: 2 * time.Millisecond,
			Seed: 7,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep := res.Report(inputs); !rep.OK() {
			t.Fatalf("%s: %v", tc.name, rep.Errors)
		}
		if n := fresh.Load(); n != 0 || res.Broadcasts <= int64(g.N()) {
			t.Fatalf("%s: %d of %d broadcasts sent a message other than the node's first", tc.name, n, res.Broadcasts)
		}
	}
}

// stubborn never decides and always has a broadcast in flight, so timeout
// and cancellation tear the run down with traffic in the inboxes.
type stubborn struct{ api amac.API }

func (s *stubborn) Start(api amac.API) {
	s.api = api
	api.Broadcast(beat{})
}
func (s *stubborn) OnReceive(amac.Message) {}
func (s *stubborn) OnAck(amac.Message)     { s.api.Broadcast(beat{}) }

type beat struct{}

func (beat) IDCount() int { return 0 }

func stubbornConfig() Config {
	return Config{
		Graph:   graph.Clique(2),
		Inputs:  mixed(2),
		Factory: func(amac.NodeConfig) amac.Algorithm { return &stubborn{} },
	}
}

func TestTimeout(t *testing.T) {
	cfg := stubbornConfig()
	cfg.Timeout = 50 * time.Millisecond
	res, err := runFake(context.Background(), cfg, nil)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if res.Decided[0] || res.Decided[1] {
		t.Fatal("stubborn nodes decided")
	}
	if res.Broadcasts == 0 || res.Elapsed < cfg.Timeout {
		t.Fatalf("result does not reflect the progress made: %+v", res)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := runFake(ctx, stubbornConfig(), nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestOpenFailure(t *testing.T) {
	boom := errors.New("boom")
	res, err := RunMAC(context.Background(), stubbornConfig(), func(*Runtime) (MAC, error) { return nil, boom })
	if res != nil || err != boom {
		t.Fatalf("RunMAC = %v, %v; want nil, boom", res, err)
	}
}

func TestConfigValidationPanics(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil graph", Config{}},
		{"bad inputs", Config{Graph: graph.Clique(2), Inputs: mixed(1), Factory: twophase.Factory}},
		{"nil factory", Config{Graph: graph.Clique(2), Inputs: mixed(2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			runFake(context.Background(), tc.cfg, nil)
		})
	}
}

func TestNowStrictlyIncreasing(t *testing.T) {
	a := &api{rt: &Runtime{}}
	prev := a.Now()
	for i := 0; i < 100; i++ {
		next := a.Now()
		if next <= prev {
			t.Fatalf("Now went from %d to %d", prev, next)
		}
		prev = next
	}
}

// filler broadcasts in Start and decides in OnAck. The hub (id 1), after
// its broadcast, waits in Start until its inbox is full: it pops nothing
// meanwhile, so every leaf's message stays queued, and the leaves'
// OnReceives of the hub's message release the hub's ack into it too.
type filler struct {
	api  amac.API
	rt   func() *Runtime
	full chan int // the hub's inbox length once it stopped waiting
}

func (f *filler) Start(api amac.API) {
	f.api = api
	api.Broadcast(beat{})
	if api.ID() != 1 {
		return
	}
	rt := f.rt()
	want := rt.graph.Degree(0) + 1
	deadline := time.Now().Add(5 * time.Second)
	for len(rt.boxes[0]) < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	f.full <- len(rt.boxes[0])
}
func (f *filler) OnReceive(amac.Message) {}
func (f *filler) OnAck(amac.Message)     { f.api.Decide(0) }

// TestInboxFillsToDegreePlusOne: the hub of star:6 holds one message from
// each of its five leaves and its own ack at once, so an inbox of
// Degree(v)+1 entries is reachable, and one entry fewer panics on the push.
func TestInboxFillsToDegreePlusOne(t *testing.T) {
	g := graph.Star(6)
	var rt *Runtime
	full := make(chan int, 1)
	res, err := RunMAC(context.Background(), Config{
		Graph:   g,
		Inputs:  mixed(g.N()),
		Factory: func(amac.NodeConfig) amac.Algorithm { return &filler{rt: func() *Runtime { return rt }, full: full} },
		Timeout: 10 * time.Second,
	}, func(r *Runtime) (MAC, error) {
		rt = r
		return &fakeMAC{rt: r}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := <-full, g.Degree(0)+1; got != want {
		t.Fatalf("the hub's inbox held %d entries at most, want %d", got, want)
	}
	if rep := res.Report(mixed(g.N())); !rep.OK() {
		t.Fatal(rep.Errors)
	}
}
