// Package live is the repository's wall-clock runtime for the abstract MAC
// layer model: the same amac.Algorithm state machines that run on the
// deterministic simulator run here concurrently, one goroutine per node,
// over a MAC that delivers and acknowledges broadcasts in real time.
//
// Its purpose is the paper's deployability claim (Section 1): algorithms
// written against the abstract MAC layer contract port unchanged from
// analysis to a running system. The split is runtime versus MAC. The
// runtime (this package) owns everything an algorithm can observe — ids
// (index+1), the amac.API with its one-broadcast-in-flight rule, the
// per-node inboxes and serialized handler loops, termination, teardown and
// the result. A MAC only moves messages: handed (sender, msg), it owes the
// runtime one Deliver per neighbor and then one Ack. Two MACs exist: the
// timer goroutine in this package (Run), with delays drawn from a seeded
// generator inside a wall-clock Fack, and internal/netmac's retransmission
// layer over loopback UDP sockets.
//
// The model's one guarantee — every neighbor receives a broadcast once,
// before its sender is acknowledged — is checked here, for every MAC, by
// a per-sender bitset over its neighbors, set in Deliver and read in Ack;
// a MAC that breaks it ends the run with ErrContract. The
// runtime then holds the ack until every neighbor's OnReceive of the
// broadcast has returned, so OnAck runs after the receivers' handlers
// here as on the simulator.
//
// That hold bounds every inbox. A sender has one broadcast in flight, and
// it cannot broadcast again before a receiver has run OnReceive of the
// last one, so node v's inbox holds at most one message per neighbor plus
// v's own ack: Degree(v)+1 entries. Each inbox is a channel of exactly
// that capacity; a push that finds it full is a runtime bug and panics.
//
// Crash failures are deliberately out of scope here; the Theorem 3.2
// experiments need the simulator's reproducible schedules.
package live

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/graph"
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
	// Timeout bounds the whole run; 0 means DefaultTimeout.
	Timeout time.Duration
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

// event is an inbox entry: msg delivered from node from or, with msg nil,
// the ack of the node's own broadcast.
type event struct {
	msg  amac.Message
	from int
}

// Runtime is one execution as its MAC sees it: where deliveries and acks
// go, and when to stop.
type Runtime struct {
	graph   *graph.Graph
	mac     MAC
	boxes   []chan event   // node v's holds Degree(v)+1 (package comment)
	held    []atomic.Int64 // per sender: the OnReceives and MAC Ack its ack still waits for
	clock   atomic.Int64
	started time.Time
	done    <-chan struct{}
	fail    context.CancelCauseFunc // ends the run with a contract error
	// got[gotOff[s]:gotOff[s+1]] is sender s's bitset over the positions
	// in its adjacency row: the neighbors its broadcast has reached.
	got    []atomic.Uint64
	gotOff []int

	broadcasts, discards atomic.Int64

	res        *Result // node i's slots are its loop's until the loops have exited
	undecided  atomic.Int64
	allDecided chan struct{}
}

// Done is closed when the run is over; MAC goroutines stop on it.
func (rt *Runtime) Done() <-chan struct{} { return rt.done }

// Deliver hands m, broadcast by sender, to node to.
func (rt *Runtime) Deliver(sender, to int, m amac.Message) {
	i := rt.slot(sender, to)
	if i < 0 {
		rt.fail(fmt.Errorf("%w: node %d's broadcast delivered to non-neighbor %d", ErrContract, sender, to))
		return
	}
	bit := uint64(1) << (i % 64)
	if rt.got[rt.gotOff[sender]+i/64].Or(bit)&bit != 0 {
		rt.fail(fmt.Errorf("%w: node %d's broadcast delivered to neighbor %d more than once, or after its ack", ErrContract, sender, to))
		return
	}
	rt.push(to, event{msg: m, from: sender})
}

// push queues ev in node's inbox without blocking; a full inbox breaks the
// bound the package comment derives, so it panics.
func (rt *Runtime) push(node int, ev event) {
	select {
	case rt.boxes[node] <- ev:
	default:
		panic(fmt.Sprintf("live: node %d's inbox is full (%d entries, degree %d)", node, cap(rt.boxes[node]), rt.graph.Degree(node)))
	}
}

// slot returns to's position in sender's adjacency row, or -1 when to is
// not a neighbor of sender.
func (rt *Runtime) slot(sender, to int) int {
	row := rt.graph.Neighbors(sender)
	if !rt.graph.Sorted() {
		return slices.Index(row, to)
	}
	if i, ok := slices.BinarySearch(row, to); ok {
		return i
	}
	return -1
}

// Ack completes sender's broadcast; the sender's OnAck runs once its
// receivers' OnReceives have returned too.
func (rt *Runtime) Ack(sender int) {
	reached := 0
	for i := rt.gotOff[sender]; i < rt.gotOff[sender+1]; i++ {
		reached += bits.OnesCount64(rt.got[i].Load())
	}
	if owed := rt.graph.Degree(sender) - reached; owed != 0 {
		rt.fail(fmt.Errorf("%w: node %d acked with %d deliveries outstanding", ErrContract, sender, owed))
		return
	}
	rt.release(sender)
}

// release counts down what sender's ack waits for and enqueues the ack at
// zero.
func (rt *Runtime) release(sender int) {
	if rt.held[sender].Add(-1) == 0 {
		rt.push(sender, event{})
	}
}

// api implements amac.API for one node. Its methods are only called from
// the node's event loop goroutine, which owns the in-flight broadcast.
type api struct {
	rt   *Runtime
	node int
	sent amac.Message // the broadcast in flight, nil when none is
}

func (a *api) ID() amac.NodeID { return amac.NodeID(a.node + 1) }

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
	for i := rt.gotOff[a.node]; i < rt.gotOff[a.node+1]; i++ {
		rt.got[i].Store(0)
	}
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

// loop is one node's goroutine: Start, then serve the inbox until the run
// is over.
func (rt *Runtime) loop(node int, alg amac.Algorithm) {
	a := &api{rt: rt, node: node}
	alg.Start(a)
	for {
		var ev event
		select {
		case <-rt.done:
			return
		case ev = <-rt.boxes[node]:
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
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}

	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	rt := &Runtime{
		graph:      cfg.Graph,
		boxes:      make([]chan event, n),
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
	rt.gotOff = make([]int, n+1)
	for i := range n {
		rt.gotOff[i+1] = rt.gotOff[i] + (cfg.Graph.Degree(i)+63)/64
	}
	rt.got = make([]atomic.Uint64, rt.gotOff[n])
	rt.undecided.Store(int64(n))
	for i := range rt.boxes {
		rt.boxes[i] = make(chan event, cfg.Graph.Degree(i)+1)
	}

	algs := make([]amac.Algorithm, n)
	for i := range algs {
		algs[i] = cfg.Factory(amac.NodeConfig{ID: amac.NodeID(i + 1), Input: cfg.Inputs[i]})
		if algs[i] == nil {
			panic(fmt.Sprintf("live: factory returned nil algorithm for node %d", i))
		}
	}

	mac, err := open(rt)
	if err != nil {
		return nil, err
	}
	rt.mac = mac

	var running sync.WaitGroup
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

	// Teardown order: stop the MAC's goroutines and the node loops at
	// their next wait, and close the MAC only once the loops have exited,
	// so no Broadcast reaches a closed one. What is left in the inboxes
	// stays there; the bound holds for pushes that land after the loops.
	cancel(nil)
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
