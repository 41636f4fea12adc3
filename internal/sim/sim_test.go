package sim

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/graph"
)

// testMsg is a minimal message carrying a payload and a declared id count.
type testMsg struct {
	from amac.NodeID
	tag  string
	ids  int
}

func (m testMsg) IDCount() int { return m.ids }

// onceAlg broadcasts a single message at start and decides its input on
// ack. A benchmark sets msg to one message boxed up front, so that Start
// does not allocate.
type onceAlg struct {
	api   amac.API
	input amac.Value
	msg   amac.Message
}

func (a *onceAlg) Start(api amac.API) {
	a.api = api
	if a.msg == nil {
		a.msg = testMsg{from: api.ID(), tag: "once", ids: 1}
	}
	api.Broadcast(a.msg)
}
func (a *onceAlg) OnReceive(amac.Message) {}
func (a *onceAlg) OnAck(amac.Message)     { a.api.Decide(a.input) }

func onceFactory(cfg amac.NodeConfig) amac.Algorithm {
	return &onceAlg{input: cfg.Input}
}

// chatterAlg rebroadcasts forever; used to exercise the MaxEvents cutoff
// and the hot-path benchmarks. The message is boxed once so the steady
// state measures the engine, not interface conversion.
type chatterAlg struct {
	api amac.API
	msg amac.Message
}

func (a *chatterAlg) Start(api amac.API) {
	a.api = api
	if a.msg == nil {
		a.msg = testMsg{tag: "chatter"}
	}
	api.Broadcast(a.msg)
}
func (a *chatterAlg) OnReceive(amac.Message) {}
func (a *chatterAlg) OnAck(amac.Message) {
	a.api.Broadcast(a.msg)
}

// recorderAlg records everything it receives; never broadcasts or decides.
type recorderAlg struct {
	got []amac.Message
}

func (a *recorderAlg) Start(amac.API)           {}
func (a *recorderAlg) OnReceive(m amac.Message) { a.got = append(a.got, m) }
func (a *recorderAlg) OnAck(amac.Message)       {}

func inputs(vs ...int) []amac.Value {
	out := make([]amac.Value, len(vs))
	for i, v := range vs {
		out[i] = amac.Value(v)
	}
	return out
}

func TestSynchronousOnce(t *testing.T) {
	res := Run(Config{
		Graph:     graph.Line(3),
		Inputs:    inputs(0, 1, 0),
		Factory:   onceFactory,
		Scheduler: Synchronous{},
	})
	if !allDecided(res) {
		t.Fatal("not all nodes decided")
	}
	// One synchronous round: everything at time 1.
	if res.MaxDecideTime != 1 {
		t.Fatalf("decision time %d, want 1", res.MaxDecideTime)
	}
	if res.Broadcasts != 3 || res.Acks != 3 {
		t.Fatalf("broadcasts=%d acks=%d, want 3/3", res.Broadcasts, res.Acks)
	}
	// Line of 3 has 4 directed deliveries.
	if res.Deliveries != 4 {
		t.Fatalf("deliveries=%d, want 4", res.Deliveries)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}

func TestSynchronousRoundLength(t *testing.T) {
	res := Run(Config{
		Graph:     graph.Clique(2),
		Inputs:    inputs(1, 1),
		Factory:   onceFactory,
		Scheduler: Synchronous{Round: 10},
	})
	if res.MaxDecideTime != 10 {
		t.Fatalf("decision time %d, want 10", res.MaxDecideTime)
	}
}

func TestMaxDelay(t *testing.T) {
	res := Run(Config{
		Graph:     graph.Clique(4),
		Inputs:    inputs(0, 0, 0, 0),
		Factory:   onceFactory,
		Scheduler: MaxDelay{F: 7},
	})
	if res.MaxDecideTime != 7 {
		t.Fatalf("decision time %d, want 7", res.MaxDecideTime)
	}
}

func TestDiscardWhileInFlight(t *testing.T) {
	f := func(cfg amac.NodeConfig) amac.Algorithm {
		return &doubleSender{}
	}
	res := Run(Config{
		Graph:     graph.Clique(2),
		Inputs:    inputs(0, 0),
		Factory:   f,
		Scheduler: Synchronous{},
	})
	if res.Discards != 2 {
		t.Fatalf("discards=%d, want 2 (one per node)", res.Discards)
	}
}

type doubleSender struct{}

func (a *doubleSender) Start(api amac.API) {
	if !api.Broadcast(testMsg{tag: "first"}) {
		panic("first broadcast rejected")
	}
	if api.Broadcast(testMsg{tag: "second"}) {
		panic("second broadcast accepted while first in flight")
	}
}
func (a *doubleSender) OnReceive(amac.Message) {}
func (a *doubleSender) OnAck(amac.Message)     {}

func TestMidBroadcastCrash(t *testing.T) {
	// Node 0 (hub of a 3-star) broadcasts; EdgeOrder delivers to leaf 1
	// at t=1, leaf 2 at t=2, leaf 3 at t=3, ack at t=4. Crashing node 0
	// at t=2 must deliver to leaves 1 and 2 only and never ack.
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
		Graph:     graph.Star(4),
		Inputs:    inputs(0, 0, 0, 0),
		Factory:   factory,
		Scheduler: &EdgeOrder{MaxDegree: 3},
		Crashes:   []Crash{{Node: 0, At: 2}},
	})
	if !res.Crashed[0] {
		t.Fatal("node 0 not marked crashed")
	}
	if res.Acks != 0 {
		t.Fatalf("acks=%d, want 0 (crash loses the ack)", res.Acks)
	}
	if len(recorders[1].got) != 1 || len(recorders[2].got) != 1 {
		t.Fatalf("leaves 1,2 got %d,%d messages, want 1,1", len(recorders[1].got), len(recorders[2].got))
	}
	if len(recorders[3].got) != 0 {
		t.Fatalf("leaf 3 got %d messages, want 0 (crash was mid-broadcast)", len(recorders[3].got))
	}
	if res.Decided[0] {
		t.Fatal("crashed node decided")
	}
}

func TestCrashedReceiverDropsDeliveries(t *testing.T) {
	rec := &recorderAlg{}
	factory := func(cfg amac.NodeConfig) amac.Algorithm {
		if cfg.ID == 1 {
			return &onceAlg{input: cfg.Input}
		}
		return rec
	}
	res := Run(Config{
		Graph:     graph.Clique(2),
		Inputs:    inputs(0, 0),
		Factory:   factory,
		Scheduler: MaxDelay{F: 5},
		Crashes:   []Crash{{Node: 1, At: 1}},
	})
	if len(rec.got) != 0 {
		t.Fatalf("crashed receiver got %d messages", len(rec.got))
	}
	// The sender still gets its ack: acks wait only for non-faulty
	// neighbors in the model.
	if res.Acks != 1 {
		t.Fatalf("acks=%d, want 1", res.Acks)
	}
	if !res.Decided[0] {
		t.Fatal("surviving node should have decided")
	}
}

func TestDoubleDecideViolation(t *testing.T) {
	factory := func(cfg amac.NodeConfig) amac.Algorithm {
		return &doubleDecider{}
	}
	res := Run(Config{
		Graph:     graph.Clique(2),
		Inputs:    inputs(0, 1),
		Factory:   factory,
		Scheduler: Synchronous{},
	})
	if len(res.Violations) != 2 {
		t.Fatalf("violations=%d, want 2", len(res.Violations))
	}
}

type doubleDecider struct{ api amac.API }

func (a *doubleDecider) Start(api amac.API) {
	a.api = api
	api.Broadcast(testMsg{})
}
func (a *doubleDecider) OnReceive(amac.Message) {}
func (a *doubleDecider) OnAck(amac.Message) {
	a.api.Decide(0)
	a.api.Decide(0) // same value: no violation
	a.api.Decide(1) // different value: violation
}

func TestAuditIDCount(t *testing.T) {
	factory := func(cfg amac.NodeConfig) amac.Algorithm {
		return &fatSender{}
	}
	res := Run(Config{
		Graph:     graph.Clique(2),
		Inputs:    inputs(0, 0),
		Factory:   factory,
		Scheduler: Synchronous{},
	})
	if len(res.Violations) != 2 {
		t.Fatalf("violations=%d, want 2 (one oversized message per node)", len(res.Violations))
	}
}

type fatSender struct{}

func (a *fatSender) Start(api amac.API) {
	api.Broadcast(testMsg{ids: amac.MaxMessageIDs + 1})
}
func (a *fatSender) OnReceive(amac.Message) {}
func (a *fatSender) OnAck(amac.Message)     {}

func TestMaxEventsCutoff(t *testing.T) {
	res := Run(Config{
		Graph:     graph.Clique(3),
		Inputs:    inputs(0, 0, 0),
		Factory:   func(amac.NodeConfig) amac.Algorithm { return &chatterAlg{} },
		Scheduler: Synchronous{},
		MaxEvents: 500,
	})
	if !res.Cutoff {
		t.Fatal("expected MaxEvents cutoff")
	}
	if res.Quiescent {
		t.Fatal("cutoff run reported quiescent")
	}
}

func TestRandomSchedulerDeterminism(t *testing.T) {
	run := func(seed int64) *Result {
		return Run(Config{
			Graph:     graph.RandomConnected(12, 0.2, 3),
			Inputs:    make([]amac.Value, 12),
			Factory:   onceFactory,
			Scheduler: NewRandom(16, seed),
		})
	}
	a, b := run(5), run(5)
	if a.Events != b.Events || a.Time != b.Time || a.MaxDecideTime != b.MaxDecideTime {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c := run(6)
	if a.Events == c.Events && a.Time == c.Time && a.Deliveries == c.Deliveries {
		t.Log("different seeds produced identical aggregate stats (possible, but unusual)")
	}
}

func TestRandomSchedulerWithinBound(t *testing.T) {
	// The engine panics if a plan exceeds Fack; running many seeds is an
	// effective property test of the Random scheduler's plan validity.
	for seed := int64(0); seed < 25; seed++ {
		Run(Config{
			Graph:     graph.Clique(6),
			Inputs:    make([]amac.Value, 6),
			Factory:   onceFactory,
			Scheduler: NewRandom(1+seed%7, seed),
		})
	}
}

func TestGateSilencesSender(t *testing.T) {
	var deliveries []Event
	Run(Config{
		Graph:   graph.Line(2),
		Inputs:  inputs(0, 0),
		Factory: onceFactory,
		Scheduler: Gate{
			Base:  Synchronous{},
			Gated: map[int]bool{0: true},
			Until: 50,
		},
		Observer: func(ev Event) {
			if ev.Kind == EventDeliver {
				deliveries = append(deliveries, ev)
			}
		},
	})
	if len(deliveries) != 2 {
		t.Fatalf("deliveries=%d, want 2", len(deliveries))
	}
	for _, ev := range deliveries {
		if ev.Peer == 0 && ev.Time < 50 {
			t.Fatalf("gated sender's message delivered at t=%d before gate 50", ev.Time)
		}
		if ev.Peer == 1 && ev.Time >= 50 {
			t.Fatalf("ungated sender's message delayed to t=%d", ev.Time)
		}
	}
}

func TestSlowSubsetStretchesDelays(t *testing.T) {
	var ackTimes = map[int]int64{}
	Run(Config{
		Graph:   graph.Line(2),
		Inputs:  inputs(0, 0),
		Factory: onceFactory,
		Scheduler: SlowSubset{
			Base:   Synchronous{},
			Slow:   map[int]bool{1: true},
			Factor: 9,
		},
		Observer: func(ev Event) {
			if ev.Kind == EventAck {
				ackTimes[ev.Node] = ev.Time
			}
		},
	})
	if ackTimes[0] != 1 {
		t.Fatalf("fast node acked at %d, want 1", ackTimes[0])
	}
	if ackTimes[1] != 9 {
		t.Fatalf("slow node acked at %d, want 9", ackTimes[1])
	}
}

func TestEdgeOrderSerialization(t *testing.T) {
	var recvTimes = map[int]int64{}
	Run(Config{
		Graph:     graph.Star(4),
		Inputs:    inputs(0, 0, 0, 0),
		Factory:   onceFactory,
		Scheduler: &EdgeOrder{MaxDegree: 3},
		Observer: func(ev Event) {
			if ev.Kind == EventDeliver && ev.Peer == 0 {
				recvTimes[ev.Node] = ev.Time
			}
		},
	})
	for leaf := 1; leaf <= 3; leaf++ {
		if recvTimes[leaf] != int64(leaf) {
			t.Fatalf("leaf %d received at t=%d, want %d", leaf, recvTimes[leaf], leaf)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	valid := func() Config {
		return Config{
			Graph:     graph.Clique(2),
			Inputs:    inputs(0, 0),
			Factory:   onceFactory,
			Scheduler: Synchronous{},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil graph", func(c *Config) { c.Graph = nil }},
		{"input mismatch", func(c *Config) { c.Inputs = inputs(0) }},
		{"nil factory", func(c *Config) { c.Factory = nil }},
		{"nil scheduler", func(c *Config) { c.Scheduler = nil }},
		{"duplicate ids", func(c *Config) { c.IDs = []amac.NodeID{7, 7} }},
		{"id mismatch", func(c *Config) { c.IDs = []amac.NodeID{7} }},
		{"bad crash node", func(c *Config) { c.Crashes = []Crash{{Node: 9, At: 1}} }},
		{"negative crash time", func(c *Config) { c.Crashes = []Crash{{Node: 0, At: -2}} }},
		{"negative event cap", func(c *Config) { c.MaxEvents = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid()
			tc.mutate(&cfg)
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			Run(cfg)
		})
	}
}

// TestConfigValidationQueueHorizon: a scheduler whose declared horizon does
// not fit the event ring is a configuration error naming both numbers, and
// MaxFack itself gets the 2^20-bucket ring.
func TestConfigValidationQueueHorizon(t *testing.T) {
	cfg := Config{
		Graph:     graph.Clique(2),
		Inputs:    inputs(0, 0),
		Factory:   onceFactory,
		Scheduler: MaxDelay{F: 1<<20 + 1},
	}
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "1048577") || !strings.Contains(err.Error(), "1048575") {
		t.Fatalf("Fack 2^20+1: got error %v, want one naming 1048577 and MaxFack 1048575", err)
	}
	cfg.Scheduler = MaxDelay{F: MaxFack}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Fack %d rejected: %v", int64(MaxFack), err)
	}
	if e := NewEngine(cfg); e.q.span != 1<<20 {
		t.Fatalf("ring for MaxFack spans %d buckets, want 2^20", e.q.span)
	}
}

// TestConfigValidationNodeCount: the queue stores node indices as int32, so
// a topology past MaxNodes is a configuration error naming the count — not
// an index that wraps somewhere in push. (No such graph can be built in a
// test, so the check Validate calls is driven directly.)
func TestConfigValidationNodeCount(t *testing.T) {
	if err := checkNodeCount(MaxNodes); err != nil {
		t.Fatalf("%d nodes rejected: %v", MaxNodes, err)
	}
	if strconv.IntSize == 32 {
		t.Skip("int cannot exceed MaxNodes on this platform")
	}
	tooMany := MaxNodes
	tooMany++
	err := checkNodeCount(tooMany)
	if err == nil || !strings.Contains(err.Error(), "2147483648") || !strings.Contains(err.Error(), "2147483647") {
		t.Fatalf("2^31 nodes: got error %v, want one naming 2147483648 and MaxNodes 2147483647", err)
	}
}

// TestQueuePushOutsideRingPanics: an event past the ring would alias an
// earlier time's bucket, so push refuses it rather than misorder it.
func TestQueuePushOutsideRingPanics(t *testing.T) {
	var q eventQueue
	q.init(4) // 8 buckets: times [0, 8)
	q.pushDelivery(7, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("push at t=8 into an 8-bucket ring at cur=0 did not panic")
		}
	}()
	q.pushDelivery(8, 0, 1)
}

// TestBadSchedulerPanics: every contract rule a plan can break panics with
// the message naming it. The two single-node cases have no recipient, so
// only the ack's own check can catch them; their node rebroadcasts on every
// ack, and the event cap keeps a regression from spinning at one instant.
func TestBadSchedulerPanics(t *testing.T) {
	cases := []struct {
		name   string
		single bool // graph.Clique(1) with a rebroadcasting node
		plan   func(b Broadcast, p *Plan)
		want   string
	}{
		{"late delivery", false, func(b Broadcast, p *Plan) {
			for i := range b.Neighbors {
				p.Recv[i] = b.Now + 100
			}
			p.Ack = b.Now + 100
		}, "sim: scheduler delivers to 1 at t=100, past Fack deadline 10"},
		{"delivery at now", false, func(b Broadcast, p *Plan) {
			for i := range b.Neighbors {
				p.Recv[i] = b.Now
			}
			p.Ack = b.Now + 1
		}, "sim: scheduler delivers to 1 at t=0, not after broadcast at t=0"},
		{"ack before delivery", false, func(b Broadcast, p *Plan) {
			for i := range b.Neighbors {
				p.Recv[i] = b.Now + 2
			}
			p.Ack = b.Now + 1
		}, "sim: scheduler delivers to 1 at t=2, after the ack at t=1"},
		{"missing neighbor", false, func(b Broadcast, p *Plan) {
			p.Ack = b.Now + 1 // every Recv slot left at NoDelivery
		}, "sim: scheduler plan misses reliable neighbor 1 of sender 0"},
		{"resized plan", false, func(b Broadcast, p *Plan) {
			for i := range b.Neighbors {
				p.Recv[i] = b.Now + 1
			}
			p.Recv = append(p.Recv, b.Now+1) // a slot with no recipient
			p.Ack = b.Now + 1
		}, "sim: scheduler plan has 2 slots for 1 recipients of sender 0"},
		{"late ack", false, func(b Broadcast, p *Plan) {
			for i := range b.Neighbors {
				p.Recv[i] = b.Now + 1
			}
			p.Ack = b.Now + 11
		}, "sim: scheduler acks at t=11, past Fack deadline 10"},
		{"ack at now, no recipient", true, func(b Broadcast, p *Plan) {
			p.Ack = b.Now
		}, "sim: scheduler acks at t=0, not after broadcast at t=0"},
		{"ack before now, no recipient", true, func(b Broadcast, p *Plan) {
			p.Ack = b.Now - 1
		}, "sim: scheduler acks at t=-1, not after broadcast at t=0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected panic")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want it to contain %q", msg, tc.want)
				}
			}()
			cfg := Config{
				Graph:     graph.Clique(2),
				Inputs:    inputs(0, 0),
				Factory:   onceFactory,
				Scheduler: planFunc{f: tc.plan},
			}
			if tc.single {
				cfg.Graph = graph.Clique(1)
				cfg.Inputs = inputs(0)
				cfg.Factory = func(amac.NodeConfig) amac.Algorithm { return &chatterAlg{} }
				cfg.MaxEvents = 1000
			}
			Run(cfg)
		})
	}
}

type planFunc struct {
	f func(Broadcast, *Plan)
}

func (p planFunc) Fack() int64                { return 10 }
func (p planFunc) Plan(b Broadcast, pl *Plan) { p.f(b, pl) }

func TestDefaultIDsAssigned(t *testing.T) {
	var ids []amac.NodeID
	factory := func(cfg amac.NodeConfig) amac.Algorithm {
		ids = append(ids, cfg.ID)
		return &recorderAlg{}
	}
	Run(Config{
		Graph:     graph.Clique(3),
		Inputs:    inputs(0, 0, 0),
		Factory:   factory,
		Scheduler: Synchronous{},
	})
	for i, id := range ids {
		if id != amac.NodeID(i+1) {
			t.Fatalf("node %d got default id %d, want %d", i, id, i+1)
		}
	}
}

func TestEventKindString(t *testing.T) {
	kinds := []EventKind{EventBroadcast, EventDeliver, EventAck, EventDecide, EventCrash, EventDiscard, EventKind(99)}
	want := []string{"broadcast", "deliver", "ack", "decide", "crash", "discard", "EventKind(99)"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Fatalf("EventKind %d string %q, want %q", int(k), k.String(), want[i])
		}
	}
}
