// Package live is the repository's wall-clock runtime for the abstract MAC
// layer model: the same amac.Algorithm state machines that run on the
// deterministic simulator run here concurrently, one goroutine per node,
// over a MAC that delivers and acknowledges broadcasts in real time.
//
// Its purpose is the paper's deployability claim (Section 1): algorithms
// written against the abstract MAC layer contract port unchanged from
// analysis to a running system. The split is runtime versus MAC. The
// runtime (this package) owns everything an algorithm can observe — ids,
// the amac.API with its one-broadcast-in-flight rule, the per-node
// mailboxes and serialized handler loops, termination, teardown, the
// result and the metrics exposition. A MAC only moves messages: handed
// (sender, msg), it owes the runtime one Deliver per neighbor and then one
// Ack. Two MACs exist: the timer goroutine in this package (Run), with
// delays drawn from a seeded generator inside a wall-clock Fack, and
// internal/netmac's retransmission layer over loopback UDP sockets.
//
// The model's one guarantee — every neighbor receives a broadcast before
// its sender is acknowledged — is checked here, for every MAC, by a
// per-sender countdown in Deliver/Ack; a MAC that breaks it ends the run
// with ErrContract. The runtime then holds the ack until every neighbor's
// OnReceive of the broadcast has returned, so OnAck runs after the
// receivers' handlers here as on the simulator.
//
// Crash failures are deliberately out of scope here; the Theorem 3.2
// experiments need the simulator's reproducible schedules.
package live

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/mailbox"
	"github.com/absmac/absmac/internal/metrics"
	"github.com/absmac/absmac/internal/sim"
)

// Config describes one wall-clock execution.
type Config struct {
	// Graph is the topology. Required.
	Graph *graph.Graph
	// Inputs holds each node's initial value, indexed by node. Required.
	Inputs []amac.Value
	// Factory builds each node's algorithm. Required.
	Factory amac.Factory
	// Fack is the timer MAC's wall-clock delivery bound: deliveries land
	// within (0, Fack/2] and the ack within (0, Fack] of the broadcast.
	// 0 means DefaultFack. A MAC whose timing is emergent ignores it.
	Fack time.Duration
	// Seed seeds the timer MAC's randomized delays.
	Seed int64
	// IDs optionally assigns node ids (defaults to index+1).
	IDs []amac.NodeID
	// Timeout bounds the whole run; 0 means DefaultTimeout.
	Timeout time.Duration
	// MetricsInterval enables periodic flight-recorder exposition: every
	// interval a wall-clock-stamped text snapshot of the run's counters is
	// written to MetricsOut (both must be set). This is the only place in
	// the repository timestamps surface — the metrics package itself is
	// wall-clock free, which is what keeps the simulator deterministic.
	MetricsInterval time.Duration
	// MetricsOut receives the exposition lines. Writes happen from a
	// dedicated goroutine that exits before the run returns.
	MetricsOut io.Writer
}

// DefaultFack is the delivery bound when Config.Fack is zero.
const DefaultFack = 5 * time.Millisecond

// DefaultTimeout bounds runs when Config.Timeout is zero.
const DefaultTimeout = 30 * time.Second

// ErrTimeout reports that the run timed out before every node decided.
var ErrTimeout = errors.New("live: run timed out before all nodes decided")

// ErrContract reports that the MAC broke the model's delivery guarantee;
// the returned error wraps it and names the sender.
var ErrContract = errors.New("live: MAC broke the deliver-before-ack contract")

// MAC is the transport under the runtime. Its methods are called by the
// runtime only.
type MAC interface {
	// Broadcast starts transmitting m from node sender and returns without
	// waiting for it. The MAC then owes the runtime, from any goroutine,
	// exactly one Deliver(sender, to, m) for each neighbor of sender,
	// followed by one Ack(sender). The runtime never calls it again for
	// that sender before the Ack.
	Broadcast(sender int, m amac.Message)
	// Expose adds the MAC's own counters to one exposition snapshot.
	Expose(reg *metrics.Registry)
	// Close releases the MAC's resources and returns once its goroutines
	// have exited. It is called once, after Done is closed and every node
	// loop has returned.
	Close()
}

// Result summarizes a wall-clock execution.
type Result struct {
	// Decided, Decision and DecideTime mirror the simulator's result
	// (times are wall-clock offsets from the run start).
	Decided    []bool
	Decision   []amac.Value
	DecideTime []time.Duration
	// Broadcasts and Discards count MAC-layer operations.
	Broadcasts, Discards int64
	// Elapsed is the total run time.
	Elapsed time.Duration
}

// Report checks the outcome against the consensus properties.
func (r *Result) Report(inputs []amac.Value) *consensus.Report {
	// Reuse the simulator-result checker: the checked fields are plain
	// data shared by both substrates.
	sr := &sim.Result{
		Decided:  r.Decided,
		Decision: r.Decision,
		Crashed:  make([]bool, len(r.Decided)),
	}
	sr.DecideTime = make([]int64, len(r.DecideTime))
	for i, d := range r.DecideTime {
		sr.DecideTime[i] = int64(d)
	}
	return consensus.Check(inputs, sr)
}

// event is a mailbox entry: msg delivered from node from or, with msg nil,
// the ack of the node's own broadcast.
type event struct {
	msg  amac.Message
	from int
}

// Runtime is one execution as its MAC sees it: where deliveries and acks
// go, and when to stop.
type Runtime struct {
	graph   *graph.Graph
	ids     []amac.NodeID
	mac     MAC
	boxes   []*mailbox.Mailbox[event]
	owed    []atomic.Int64 // per sender: deliveries its broadcast still owes
	held    []atomic.Int64 // per sender: the OnReceives and MAC Ack its ack still waits for
	clock   atomic.Int64
	started time.Time
	done    <-chan struct{}
	fail    context.CancelCauseFunc // ends the run with a contract error

	broadcasts, discards atomic.Int64

	res        *Result // node i's slots are its loop's until the loops have exited
	undecided  atomic.Int64
	allDecided chan struct{}
}

// Done is closed when the run is over; MAC goroutines stop on it.
func (rt *Runtime) Done() <-chan struct{} { return rt.done }

// Deliver hands m, broadcast by sender, to node to.
func (rt *Runtime) Deliver(sender, to int, m amac.Message) {
	if !rt.graph.HasEdge(sender, to) {
		rt.fail(fmt.Errorf("%w: node %d's broadcast delivered to non-neighbor %d", ErrContract, sender, to))
		return
	}
	if rt.owed[sender].Add(-1) < 0 {
		rt.fail(fmt.Errorf("%w: node %d's broadcast delivered more than once per neighbor or after its ack", ErrContract, sender))
		return
	}
	rt.boxes[to].Push(event{msg: m, from: sender})
}

// Ack completes sender's broadcast; the sender's OnAck runs once its
// receivers' OnReceives have returned too.
func (rt *Runtime) Ack(sender int) {
	if owed := rt.owed[sender].Load(); owed != 0 {
		rt.fail(fmt.Errorf("%w: node %d acked with %d deliveries outstanding", ErrContract, sender, owed))
		return
	}
	rt.release(sender)
}

// release counts down what sender's ack waits for and enqueues the ack at
// zero.
func (rt *Runtime) release(sender int) {
	if rt.held[sender].Add(-1) == 0 {
		rt.boxes[sender].Push(event{})
	}
}

// api implements amac.API for one node. Its methods are only called from
// the node's event loop goroutine, which owns the in-flight broadcast.
type api struct {
	rt   *Runtime
	node int
	sent amac.Message // the broadcast in flight, nil when none is
}

func (a *api) ID() amac.NodeID { return a.rt.ids[a.node] }

// Now returns a strictly increasing logical timestamp shared by all nodes
// (the total order the change service needs).
func (a *api) Now() int64 { return a.rt.clock.Add(1) }

func (a *api) Broadcast(m amac.Message) bool {
	if m == nil {
		panic(fmt.Sprintf("live: node %d broadcast a nil message", a.node))
	}
	rt := a.rt
	if a.sent != nil {
		rt.discards.Add(1)
		return false
	}
	a.sent = m
	rt.broadcasts.Add(1)
	deg := int64(rt.graph.Degree(a.node))
	rt.owed[a.node].Store(deg)
	rt.held[a.node].Store(deg + 1)
	rt.mac.Broadcast(a.node, m)
	return true
}

func (a *api) Decide(v amac.Value) {
	rt := a.rt
	if rt.res.Decided[a.node] {
		return
	}
	rt.res.Decided[a.node] = true
	rt.res.Decision[a.node] = v
	rt.res.DecideTime[a.node] = time.Since(rt.started)
	if rt.undecided.Add(-1) == 0 {
		close(rt.allDecided)
	}
}

// loop is one node's goroutine: Start, then serve the mailbox until it is
// closed and drained.
func (rt *Runtime) loop(node int, alg amac.Algorithm) {
	a := &api{rt: rt, node: node}
	alg.Start(a)
	for {
		ev, ok := rt.boxes[node].Pop()
		if !ok {
			return
		}
		if ev.msg == nil {
			m := a.sent
			a.sent = nil
			alg.OnAck(m)
		} else {
			alg.OnReceive(ev.msg)
			rt.release(ev.from)
		}
	}
}

// expose is the exposition loop: every interval, one wall-clock stamp line
// (RFC 3339 plus elapsed time) and the runtime's and the MAC's counters as
// sorted text.
func (rt *Runtime) expose(w io.Writer, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-rt.done:
			return
		case now := <-t.C:
			reg := metrics.New()
			reg.Counter("live_broadcasts").Add(rt.broadcasts.Load())
			reg.Counter("live_discards").Add(rt.discards.Load())
			reg.Gauge("live_decided").Set(int64(len(rt.boxes)) - rt.undecided.Load())
			rt.mac.Expose(reg)
			fmt.Fprintf(w, "# %s elapsed=%s\n", now.Format(time.RFC3339Nano), now.Sub(rt.started).Round(time.Millisecond))
			if err := reg.WriteText(w); err != nil {
				return
			}
		}
	}
}

// Run executes the configuration over the timer MAC until every node
// decides, the context is canceled, or the timeout elapses. The result
// always reflects whatever progress was made; the error is non-nil on
// timeout/cancellation.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	return RunMAC(ctx, cfg, func(rt *Runtime) (MAC, error) {
		fack := cfg.Fack
		if fack <= 0 {
			fack = DefaultFack
		}
		return &timers{rt: rt, half: max(fack/2, time.Microsecond), rng: rand.New(rand.NewSource(cfg.Seed))}, nil
	})
}

// RunMAC is Run over the MAC that open returns. open is called once, with
// the configuration validated; if it fails, so does the run, with a nil
// result.
func RunMAC(ctx context.Context, cfg Config, open func(*Runtime) (MAC, error)) (*Result, error) {
	if cfg.Graph == nil {
		panic("live: Config.Graph is nil")
	}
	n := cfg.Graph.N()
	if len(cfg.Inputs) != n {
		panic(fmt.Sprintf("live: %d inputs for %d nodes", len(cfg.Inputs), n))
	}
	if cfg.Factory == nil {
		panic("live: Config.Factory is nil")
	}
	ids := cfg.IDs
	if ids == nil {
		ids = make([]amac.NodeID, n)
		for i := range ids {
			ids[i] = amac.NodeID(i + 1)
		}
	}
	if len(ids) != n {
		panic(fmt.Sprintf("live: %d ids for %d nodes", len(ids), n))
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}

	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	rt := &Runtime{
		graph:      cfg.Graph,
		ids:        ids,
		boxes:      make([]*mailbox.Mailbox[event], n),
		owed:       make([]atomic.Int64, n),
		held:       make([]atomic.Int64, n),
		started:    time.Now(),
		done:       runCtx.Done(),
		fail:       cancel,
		allDecided: make(chan struct{}),
		res: &Result{
			Decided:    make([]bool, n),
			Decision:   make([]amac.Value, n),
			DecideTime: make([]time.Duration, n),
		},
	}
	rt.undecided.Store(int64(n))
	for i := range rt.boxes {
		rt.boxes[i] = mailbox.New[event]()
	}

	algs := make([]amac.Algorithm, n)
	for i := range algs {
		algs[i] = cfg.Factory(amac.NodeConfig{ID: ids[i], Input: cfg.Inputs[i]})
		if algs[i] == nil {
			panic(fmt.Sprintf("live: factory returned nil algorithm for node %d", i))
		}
	}

	mac, err := open(rt)
	if err != nil {
		return nil, err
	}
	rt.mac = mac

	var running sync.WaitGroup // node loops and the exposition loop
	if cfg.MetricsInterval > 0 && cfg.MetricsOut != nil {
		running.Add(1)
		go func() {
			defer running.Done()
			rt.expose(cfg.MetricsOut, cfg.MetricsInterval)
		}()
	}
	for i := range algs {
		running.Add(1)
		go func() {
			defer running.Done()
			rt.loop(i, algs[i])
		}()
	}

	select {
	case <-rt.allDecided:
	case <-time.After(timeout):
		err = ErrTimeout
	case <-runCtx.Done(): // the caller's cancellation, or a contract breach
		err = context.Cause(runCtx)
	}

	// Teardown order: stop the MAC's goroutines at their next wait, let
	// the node loops drain and exit (a Push after Close is a no-op), and
	// only then close the MAC, so no Broadcast reaches a closed one.
	cancel(nil)
	for _, b := range rt.boxes {
		b.Close()
	}
	running.Wait()
	mac.Close()

	if cause := context.Cause(runCtx); errors.Is(cause, ErrContract) {
		err = cause // a breach outranks whatever else ended the run
	}
	rt.res.Broadcasts, rt.res.Discards = rt.broadcasts.Load(), rt.discards.Load()
	rt.res.Elapsed = time.Since(rt.started)
	return rt.res, err
}

// timers is the in-process MAC: one goroutine per broadcast sleeps out
// randomized per-neighbor delays within (0, Fack/2], then the ack within
// the Fack budget.
type timers struct {
	rt   *Runtime
	half time.Duration
	mu   sync.Mutex
	rng  *rand.Rand
	wg   sync.WaitGroup
}

func (t *timers) Expose(*metrics.Registry) {}

func (t *timers) Close() { t.wg.Wait() }

func (t *timers) Broadcast(sender int, m amac.Message) {
	nbrs := t.rt.graph.Neighbors(sender)
	type hop struct {
		to    int
		delay time.Duration
	}
	hops := make([]hop, len(nbrs))
	t.mu.Lock()
	for i, v := range nbrs {
		hops[i] = hop{v, time.Duration(t.rng.Int63n(int64(t.half))) + 1}
	}
	slack := time.Duration(t.rng.Int63n(int64(t.half)))
	t.mu.Unlock()
	// Deliver in delay order; sleeping the increments keeps one goroutine
	// per broadcast.
	sort.SliceStable(hops, func(i, j int) bool { return hops[i].delay < hops[j].delay })
	ackDelay := slack
	if len(hops) > 0 {
		ackDelay += hops[len(hops)-1].delay
	}

	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		start := time.Now()
		for _, h := range hops {
			if !t.sleepUntil(start.Add(h.delay)) {
				return
			}
			t.rt.Deliver(sender, h.to, m)
		}
		if t.sleepUntil(start.Add(ackDelay)) {
			t.rt.Ack(sender)
		}
	}()
}

// sleepUntil sleeps until the deadline or the end of the run; it reports
// whether the run is still live.
func (t *timers) sleepUntil(deadline time.Time) bool {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-t.rt.done:
		return false
	case <-timer.C:
		return true
	}
}
