package live

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/baseline/floodpaxos"
	"github.com/absmac/absmac/internal/baseline/gatherall"
	"github.com/absmac/absmac/internal/core/twophase"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/graph"
)

func mixed(n int) []amac.Value {
	inputs := make([]amac.Value, n)
	for i := range inputs {
		inputs[i] = amac.Value(i % 2)
	}
	return inputs
}

func TestTwoPhaseOnClique(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		inputs := mixed(8)
		res, err := Run(context.Background(), Config{
			Graph:   graph.Clique(8),
			Inputs:  inputs,
			Factory: twophase.Factory,
			Fack:    2 * time.Millisecond,
			Seed:    seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep := res.Report(inputs)
		if !rep.OK() {
			t.Fatalf("seed %d: %v", seed, rep.Errors)
		}
	}
}

func TestWPaxosOnMultihop(t *testing.T) {
	cases := []*graph.Graph{
		graph.Line(7),
		graph.Grid(3, 3),
		graph.RandomConnected(12, 0.2, 4),
	}
	for i, g := range cases {
		inputs := mixed(g.N())
		audit := wpaxos.NewCountAudit()
		res, err := Run(context.Background(), Config{
			Graph:   g,
			Inputs:  inputs,
			Factory: wpaxos.NewFactory(wpaxos.Config{N: g.N(), Audit: audit}),
			Fack:    2 * time.Millisecond,
			Seed:    int64(i),
		})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		rep := res.Report(inputs)
		if !rep.OK() {
			t.Fatalf("case %d: %v", i, rep.Errors)
		}
		if v := audit.Violations(); len(v) != 0 {
			t.Fatalf("case %d: Lemma 4.2 violated live: %v", i, v)
		}
	}
}

// TestPaxosFactoriesDoNotRecycleLiveMessages runs the two factories whose
// nodes recycle send buffers on the simulator: this substrate hands the
// message pointer to concurrently running receivers and does not declare
// amac.NodeConfig.AckAfterHandlers, so the nodes must allocate per
// broadcast — under -race, a recycled buffer is a reported data race.
func TestPaxosFactoriesDoNotRecycleLiveMessages(t *testing.T) {
	g := graph.Grid(3, 3)
	inputs := mixed(g.N())
	for _, tc := range []struct {
		name    string
		factory amac.Factory
	}{
		{"wpaxos", wpaxos.NewFactory(wpaxos.Config{N: g.N()})},
		{"floodpaxos", floodpaxos.NewFactory(g.N())},
	} {
		res, err := Run(context.Background(), Config{
			Graph:   g,
			Inputs:  inputs,
			Factory: tc.factory,
			Fack:    2 * time.Millisecond,
			Seed:    7,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep := res.Report(inputs); !rep.OK() {
			t.Fatalf("%s: %v", tc.name, rep.Errors)
		}
	}
}

func TestGatherAllLive(t *testing.T) {
	g := graph.Ring(9)
	inputs := mixed(9)
	res, err := Run(context.Background(), Config{
		Graph:   g,
		Inputs:  inputs,
		Factory: gatherall.NewFactory(9),
		Fack:    time.Millisecond,
		Seed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report(inputs)
	if !rep.OK() || rep.Value != 0 {
		t.Fatalf("report %+v errors %v", rep, rep.Errors)
	}
	if res.Broadcasts == 0 {
		t.Fatal("no broadcasts counted")
	}
}

// stubborn never decides; used to exercise the timeout path.
type stubborn struct{ api amac.API }

func (s *stubborn) Start(api amac.API) {
	s.api = api
	api.Broadcast(beat{})
}
func (s *stubborn) OnReceive(amac.Message) {}
func (s *stubborn) OnAck(amac.Message)     { s.api.Broadcast(beat{}) }

type beat struct{}

func (beat) IDCount() int { return 0 }

func TestTimeout(t *testing.T) {
	inputs := mixed(2)
	res, err := Run(context.Background(), Config{
		Graph:   graph.Clique(2),
		Inputs:  inputs,
		Factory: func(amac.NodeConfig) amac.Algorithm { return &stubborn{} },
		Fack:    time.Millisecond,
		Timeout: 50 * time.Millisecond,
	})
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if res.Decided[0] || res.Decided[1] {
		t.Fatal("stubborn nodes decided")
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := Run(ctx, Config{
		Graph:   graph.Clique(2),
		Inputs:  mixed(2),
		Factory: func(amac.NodeConfig) amac.Algorithm { return &stubborn{} },
		Fack:    time.Millisecond,
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
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
		{"bad ids", Config{Graph: graph.Clique(2), Inputs: mixed(2), Factory: twophase.Factory, IDs: []amac.NodeID{1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			Run(context.Background(), tc.cfg)
		})
	}
}

func TestNowStrictlyIncreasing(t *testing.T) {
	rt := &runtime{}
	api := &liveAPI{rt: rt}
	prev := api.Now()
	for i := 0; i < 100; i++ {
		next := api.Now()
		if next <= prev {
			t.Fatalf("Now went from %d to %d", prev, next)
		}
		prev = next
	}
}

// TestMetricsExposition: with MetricsInterval set, the run emits
// wall-clock-stamped registry snapshots to MetricsOut, and the exposition
// goroutine is gone before Run returns (this test reads the buffer
// unsynchronized right after).
func TestMetricsExposition(t *testing.T) {
	var buf bytes.Buffer
	inputs := mixed(6)
	res, err := Run(context.Background(), Config{
		Graph:           graph.Clique(6),
		Inputs:          inputs,
		Factory:         twophase.Factory,
		Fack:            5 * time.Millisecond,
		MetricsInterval: time.Millisecond,
		MetricsOut:      &buf,
	})
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
	for _, want := range []string{"# 2", "elapsed=", "live_broadcasts ", "live_decided "} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition output missing %q:\n%s", want, out)
		}
	}
}
