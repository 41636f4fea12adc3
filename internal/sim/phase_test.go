package sim_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/sim"
)

// planTape wraps a scheduler and records every plan it hands out, in order:
// sender, sequence number, time, recipient count, the slots and the ack.
type planTape struct {
	base sim.Scheduler
	log  []int64
}

func (l *planTape) Fack() int64 { return l.base.Fack() }

func (l *planTape) Plan(b sim.Broadcast, p *sim.Plan) {
	l.base.Plan(b, p)
	l.log = append(l.log, int64(b.Sender), int64(b.Seq), b.Now, int64(len(b.Neighbors)))
	l.log = append(l.log, p.Recv...)
	l.log = append(l.log, p.Ack)
}

// execution is everything a run leaves behind that the test compares.
type execution struct {
	res    sim.Result
	views  []amac.View
	plans  []int64
	panic  any
	phases int
}

// execute runs cfg with every bucket array forced onto w workers (w = 1:
// the sequential loop; w = 0: the engine's own admission rule).
func execute(cfg sim.Config, w int) (x execution) {
	pl := &planTape{base: cfg.Scheduler}
	cfg.Scheduler = sim.PhaseSafe(pl)
	e := sim.NewEngine(cfg)
	sim.ForcePhases(e, w)
	defer func() {
		x.panic = recover()
		x.plans = pl.log
		x.phases = sim.PhasesRun(e)
	}()
	res := e.Run()
	x.res = *res
	x.views = sim.Views(e)
	return x
}

// sameExecution runs mk's configuration on the sequential loop and as
// parallel phases at each of widths (2, 3 and 5 when none are given), and
// fails unless every Result field (Violations in order), every node's View,
// every plan in order and any panic agree. It returns the sequential
// execution.
func sameExecution(t *testing.T, name string, mk func() sim.Config, widths ...int) execution {
	t.Helper()
	if len(widths) == 0 {
		widths = []int{2, 3, 5}
	}
	want := execute(mk(), 1)
	if want.phases != 0 {
		t.Fatalf("%s: the sequential reference ran %d phases", name, want.phases)
	}
	for _, w := range widths {
		forcedSameAs(t, fmt.Sprintf("%s w=%d", name, w), execute(mk(), w), want)
	}
	return want
}

// forcedSameAs is sameAs for a run forced onto phases: it also fails unless
// some bucket ran as one.
func forcedSameAs(t *testing.T, name string, got, want execution) {
	t.Helper()
	if got.phases == 0 && want.res.Events > 0 {
		t.Errorf("%s: no bucket ran as a phase", name)
	}
	sameAs(t, name, got, want)
}

// sameAs fails unless the execution got agrees with the sequential one,
// want.
func sameAs(t *testing.T, name string, got, want execution) {
	t.Helper()
	if !reflect.DeepEqual(got.panic, want.panic) {
		t.Errorf("%s: panic %v, sequential %v", name, got.panic, want.panic)
		return
	}
	if want.panic != nil {
		// What a run leaves after a panic is undefined; the panic and the
		// plans before it are not.
		if !slices.Equal(got.plans, want.plans) {
			t.Errorf("%s: %d plan words before the panic, sequential %d", name, len(got.plans), len(want.plans))
		}
		return
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Errorf("%s: result differs\n got  %+v\n want %+v", name, summary(&got.res), summary(&want.res))
	}
	if !reflect.DeepEqual(got.views, want.views) {
		for i := range want.views {
			if got.views[i] != want.views[i] {
				t.Errorf("%s: node %d view %+v, sequential %+v", name, i, got.views[i], want.views[i])
				break
			}
		}
	}
	if !slices.Equal(got.plans, want.plans) {
		i := 0
		for i < min(len(got.plans), len(want.plans)) && got.plans[i] == want.plans[i] {
			i++
		}
		t.Errorf("%s: plans differ from word %d (%d words, sequential %d)", name, i, len(got.plans), len(want.plans))
	}
}

func summary(r *sim.Result) string {
	return fmt.Sprintf("time=%d events=%d deliveries=%d broadcasts=%d acks=%d discards=%d maxdecide=%d quiescent=%v cutoff=%v violations=%v",
		r.Time, r.Events, r.Deliveries, r.Broadcasts, r.Acks, r.Discards, r.MaxDecideTime, r.Quiescent, r.Cutoff, r.Violations)
}

func scenarioConfig(t *testing.T, sc harness.Scenario) func() sim.Config {
	t.Helper()
	if _, err := sc.Config(); err != nil {
		t.Fatal(err)
	}
	return func() sim.Config {
		cfg, _ := sc.Config()
		return cfg
	}
}

// TestBucketPhasesMatchSequential is the byte-identity test of parallel
// bucket phases: every bucket array of each run is forced onto 2, 3 and 5
// workers (the large runs on 2 and 3) and compared with the sequential
// loop. The cases are the golden sweep grid, the large runs that take
// phases unforced (outside -short; the wpaxos maxid@10 run is cut off),
// more engines than Ps running phases at once, and probe runs built to
// stop mid-bucket, to decide twice, to fail the ID audit and to panic in
// handlers and in the scheduler.
func TestBucketPhasesMatchSequential(t *testing.T) {
	t.Run("golden grid", func(t *testing.T) {
		cells, err := harness.Grid{
			Algos:    []string{"wpaxos", "floodpaxos"},
			Topos:    []harness.Topo{{Kind: "clique", N: 4}, {Kind: "ring", N: 5}},
			Scheds:   []string{"sync", "random"},
			Facks:    []int64{3},
			Crashes:  []string{"none", "one@0"},
			Overlays: []string{"none", "chords"},
			Seeds:    []int64{1, 2, 3},
		}.Cells()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			for _, seed := range c.Seeds {
				sc := c.Base
				sc.Seed = seed
				sameExecution(t, fmt.Sprint(sc.Key()), scenarioConfig(t, sc))
			}
		}
	})

	t.Run("scenarios", func(t *testing.T) {
		type tc struct {
			sc    harness.Scenario
			large bool // skipped under -short
		}
		topo := func(s string) harness.Topo {
			tp, err := harness.ParseTopo(s)
			if err != nil {
				t.Fatal(err)
			}
			return tp
		}
		rnd := func(algo, tp string, seed int64) harness.Scenario {
			return harness.Scenario{Algo: algo, Topo: topo(tp), Sched: "random", Fack: 4, Seed: seed}
		}
		with := func(sc harness.Scenario, f func(*harness.Scenario)) harness.Scenario {
			f(&sc)
			return sc
		}
		cases := []tc{
			{sc: rnd("wpaxos", "expander:4096:8", 1000), large: true},
			{sc: rnd("wpaxos", "expander:4096:8", 1001), large: true},
			{sc: rnd("twophase", "clique:1024", 1), large: true},
			{sc: with(rnd("twophase", "clique:1024", 1), func(s *harness.Scenario) { s.Crashes = "midbroadcast" }), large: true},
			{sc: rnd("floodpaxos", "expander:1024:8", 1), large: true},
			{sc: with(rnd("wpaxos", "expander:1024:8", 1), func(s *harness.Scenario) { s.Crashes, s.MaxEvents = "maxid@10", 1_000_000 }), large: true},
			{sc: with(rnd("wpaxos", "grid:5x5", 3), func(s *harness.Scenario) { s.Crashes, s.Overlay = "midbroadcast", "chords" })},
			{sc: with(rnd("wpaxos", "expander:256:8", 2), func(s *harness.Scenario) { s.Overlay = "chords" })},
			{sc: with(rnd("gatherall", "expander:256:8", 1), func(s *harness.Scenario) { s.MaxEvents = 200_000 })},
			{sc: with(rnd("benor", "clique:128", 1), func(s *harness.Scenario) { s.MaxEvents = 300_000 })},
			{sc: with(rnd("twophase", "clique:64", 2), func(s *harness.Scenario) { s.Sched = "edgeorder" })},
			{sc: with(rnd("floodpaxos", "ring:12", 1), func(s *harness.Scenario) { s.Sched, s.Crashes, s.MaxEvents = "maxdelay", "minorityrand", 100_000 })},
		}
		for _, c := range cases {
			if c.large && testing.Short() {
				continue
			}
			widths := []int{2, 3, 5}
			if c.large {
				widths = widths[:2]
			}
			x := sameExecution(t, fmt.Sprint(c.sc.Key()), scenarioConfig(t, c.sc), widths...)
			if c.sc.MaxEvents > 0 && !x.res.Cutoff {
				t.Errorf("%v: expected the run to reach its cap of %d events (ran %d)", c.sc.Key(), c.sc.MaxEvents, x.res.Events)
			}
		}
	})

	t.Run("engines side by side", func(t *testing.T) {
		// Four engines a P, every one forcing phases: the pool is busy, so
		// each drain runs most of its workers itself, and a job that
		// reaches the pool after its pass must find nothing to do.
		tp, err := harness.ParseTopo("grid:5x5")
		if err != nil {
			t.Fatal(err)
		}
		sc := harness.Scenario{Algo: "wpaxos", Topo: tp, Sched: "random", Fack: 4, Seed: 3, Crashes: "midbroadcast", Overlay: "chords"}
		mk := scenarioConfig(t, sc)
		want := execute(mk(), 1)
		got := make([]execution, 4*runtime.GOMAXPROCS(0))
		cfgs := make([]sim.Config, len(got))
		for i := range cfgs {
			cfgs[i] = mk()
		}
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = execute(cfgs[i], 3)
			}()
		}
		wg.Wait()
		for i := range got {
			forcedSameAs(t, fmt.Sprintf("engine %d", i), got[i], want)
		}
	})

	t.Run("probes", func(t *testing.T) {
		g := graph.Clique(12)
		ins := alternating(g.N())
		mk := func(sched func() sim.Scheduler, crashes []sim.Crash, p probeConfig) func() sim.Config {
			return func() sim.Config {
				return sim.Config{
					Graph:     g,
					Inputs:    ins,
					Factory:   p.factory(),
					Scheduler: sched(),
					Crashes:   crashes,
					MaxEvents: 20_000,
				}
			}
		}
		syncSched := func() sim.Scheduler { return sim.Synchronous{Round: 1} }
		randSched := func() sim.Scheduler { return sim.NewRandom(3, 5) }
		crashes := []sim.Crash{{Node: 3, At: 2}, {Node: 8, At: 1}}

		// Owing nodes decide after different numbers of receptions and
		// nodes 0 and 6 decide at Start, so the last owing decide lands
		// inside the t=1 delivery array; every event past it would show up
		// in a node's reception count (its View's MaxTag) or the discards.
		stopMid := probeConfig{needBase: 2, needSpread: 5, startDeciders: []amac.NodeID{1, 7}}
		x := sameExecution(t, "mid-bucket stop", mk(syncSched, nil, stopMid))
		if x.res.Time != 1 || x.res.Events >= g.N()*(g.N()-1) {
			t.Errorf("mid-bucket stop: stopped at t=%d after %d events, want inside the t=1 deliveries", x.res.Time, x.res.Events)
		}
		sameExecution(t, "mid-bucket stop, crashes", mk(syncSched, crashes, stopMid))
		sameExecution(t, "mid-bucket stop, random", mk(randSched, crashes, stopMid))

		// Every node decides again, differently, on a later reception and
		// broadcasts an over-wide message at every ack: the violations of
		// many nodes interleave inside one bucket. Node 1 (id 2) never
		// decides, so the run goes on past every other node's decide;
		// so do the probes below that carry it.
		violate := probeConfig{needBase: 1, needSpread: 3, againAt: 4, fatAcks: true, silent: 2}
		x = sameExecution(t, "second decide and audit", mk(syncSched, nil, violate))
		if len(x.res.Violations) < g.N() {
			t.Errorf("second decide and audit: %d violations, want at least %d", len(x.res.Violations), g.N())
		}
		sameExecution(t, "second decide and audit, random", mk(randSched, crashes, violate))

		// Handler panics on two nodes of different workers in one bucket:
		// the one the sequential loop meets first is raised.
		for _, at := range []int{3, 5} {
			p := probeConfig{needBase: 2, needSpread: 5, panicAt: at, panicNodes: []amac.NodeID{10, 3}}
			x = sameExecution(t, fmt.Sprintf("handler panic at reception %d", at), mk(syncSched, nil, p))
			if x.panic == nil {
				t.Errorf("handler panic at reception %d: the run did not panic", at)
			}
			p.silent = 2
			sameExecution(t, fmt.Sprintf("handler panic at reception %d, random", at), mk(randSched, crashes, p))
		}

		// A scheduler panic raised on replay, racing handler panics later
		// and earlier in the same bucket.
		for _, seq := range []int{1, 2} {
			p := probeConfig{needBase: 1, needSpread: 3, panicAt: 6, panicNodes: []amac.NodeID{12}, silent: 2}
			planPanic := func() sim.Scheduler { return &panicPlan{base: sim.Synchronous{Round: 1}, sender: 5, seq: seq} }
			x = sameExecution(t, fmt.Sprintf("plan panic at seq %d", seq), mk(planPanic, nil, p))
			if x.panic == nil {
				t.Errorf("plan panic at seq %d: the run did not panic", seq)
			}
		}
	})
}

// TestBucketPhaseAdmission runs the engine's own admission rule, which the
// forced test above bypasses: a bucket of at least phaseMin events runs as
// a phase, its deliveries and then its acks, even when the ack array alone
// is far below phaseMin. Every tick of a 96-node clique under Synchronous
// holds 9 120 deliveries and 96 acks. With two or more Ps each such bucket
// must run two phases, with one P none, and either way the Result, the
// views and the plans must equal the sequential loop's.
func TestBucketPhaseAdmission(t *testing.T) {
	const n = 96
	g := graph.Clique(n)
	mk := func() sim.Config {
		return sim.Config{
			Graph:     g,
			Inputs:    make([]amac.Value, n),
			Factory:   chorusFactory,
			Scheduler: sim.Synchronous{Round: 1},
		}
	}
	want := execute(mk(), 1)
	got := execute(mk(), 0)
	sameAs(t, "clique:96", got, want)

	// The workload is what the test claims: every tick up to the last is
	// one full bucket, and the run ends on the last owing decide, in the
	// ack array of tick chorusDecideMax.
	const ticks = chorusDecideMax
	if r := want.res; r.Time != ticks || r.Deliveries != ticks*n*(n-1) || r.Acks > ticks*n || r.Acks <= (ticks-1)*n {
		t.Fatalf("t=%d, %d deliveries, %d acks; want %d full ticks of %d deliveries and %d acks", r.Time, r.Deliveries, r.Acks, ticks, n*(n-1), n)
	}
	phases := 0
	if runtime.GOMAXPROCS(0) >= 2 {
		phases = 2 * ticks
	}
	if got.phases != phases {
		t.Errorf("at GOMAXPROCS %d: %d phases over %d buckets, want %d", runtime.GOMAXPROCS(0), got.phases, ticks, phases)
	}
}

// A chorus node broadcasts chorusRounds messages, the first at Start and
// each next one at an ack, and decides its input at ack 2 + i%3 (node
// index i), chorusDecideMax at the latest: every node rebroadcasts past
// its decide, and the last decide falls inside an ack array.
const chorusRounds, chorusDecideMax = 6, 4

type chorus struct {
	api        amac.API
	input      amac.Value
	decideAt   int
	recv, acks int
	decided    bool
}

func chorusFactory(nc amac.NodeConfig) amac.Algorithm {
	return &chorus{input: nc.Input, decideAt: chorusDecideMax - 2 + int(nc.ID-1)%3}
}

func (a *chorus) Start(api amac.API) {
	a.api = api
	api.Broadcast(probeMsg{ids: 1})
}

func (a *chorus) OnReceive(amac.Message) { a.recv++ }

func (a *chorus) OnAck(amac.Message) {
	a.acks++
	if a.acks == a.decideAt {
		a.decided = true
		a.api.Decide(a.input)
	}
	if a.acks < chorusRounds {
		a.api.Broadcast(probeMsg{ids: 1})
	}
}

func (a *chorus) Inspect() amac.View {
	return amac.View{Decided: a.decided, Decision: a.input, Omega: amac.NoID, MaxTag: int64(a.recv), OmegaSince: int64(a.acks)}
}

// panicPlan panics when sender plans its broadcast seq.
type panicPlan struct {
	base        sim.Scheduler
	sender, seq int
}

func (s *panicPlan) Fack() int64 { return s.base.Fack() }

func (s *panicPlan) Plan(b sim.Broadcast, p *sim.Plan) {
	if b.Sender == s.sender && b.Seq == s.seq {
		panic(fmt.Sprintf("plan of node %d seq %d", b.Sender, b.Seq))
	}
	s.base.Plan(b, p)
}

// probeConfig shapes a probe network. Node i (id i+1) decides its input
// after needBase + i%needSpread receptions (ids in startDeciders decide at
// Start), decides the other value at reception againAt when set, and
// panics at reception panicAt when its id is in panicNodes. The node with
// id silent, when set, never decides. Every node broadcasts at Start and
// at every reception (a discard while one is in flight), and after each
// ack, with an over-wide message when fatAcks.
type probeConfig struct {
	needBase, needSpread int
	startDeciders        []amac.NodeID
	againAt              int
	fatAcks              bool
	panicAt              int
	panicNodes           []amac.NodeID
	silent               amac.NodeID
}

func (p probeConfig) factory() amac.Factory {
	return func(nc amac.NodeConfig) amac.Algorithm {
		i := int(nc.ID) - 1
		return &probe{cfg: p, id: nc.ID, input: nc.Input, need: p.needBase + i%p.needSpread}
	}
}

type probeMsg struct{ ids int }

func (m probeMsg) IDCount() int { return m.ids }

type probe struct {
	cfg          probeConfig
	api          amac.API
	id           amac.NodeID
	input        amac.Value
	need         int
	recv, acks   int
	decided      bool
	decision     amac.Value
	lastDecideAt int64
}

func (a *probe) decide(v amac.Value) {
	if a.id == a.cfg.silent {
		return
	}
	a.api.Decide(v)
	if !a.decided {
		a.decided, a.decision, a.lastDecideAt = true, v, a.api.Now()
	}
}

func (a *probe) Start(api amac.API) {
	a.api = api
	if slices.Contains(a.cfg.startDeciders, a.id) {
		a.decide(a.input)
	}
	api.Broadcast(probeMsg{ids: 1})
}

func (a *probe) OnReceive(amac.Message) {
	a.recv++
	if a.recv == a.cfg.panicAt && slices.Contains(a.cfg.panicNodes, a.id) {
		panic(fmt.Sprintf("probe node %d at reception %d", a.id, a.recv))
	}
	if a.recv == a.need {
		a.decide(a.input)
	}
	if a.cfg.againAt > 0 && a.recv == a.need+a.cfg.againAt {
		a.decide(1 - a.input)
	}
	a.api.Broadcast(probeMsg{ids: 1})
}

func (a *probe) OnAck(amac.Message) {
	a.acks++
	if a.acks > 3 {
		return
	}
	ids := 1
	if a.cfg.fatAcks {
		ids = amac.MaxMessageIDs + 1
	}
	a.api.Broadcast(probeMsg{ids: ids})
}

func (a *probe) Inspect() amac.View {
	return amac.View{
		Decided: a.decided, Decision: a.decision, Omega: amac.NoID,
		MaxTag: int64(a.recv), OmegaSince: int64(a.acks), RouteSince: a.lastDecideAt,
	}
}
