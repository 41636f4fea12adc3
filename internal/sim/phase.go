package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/absmac/absmac/internal/amac"
)

// This file runs a large bucket — the deliveries of one time, then its
// acks — as parallel phases, one per array. The rules are in the package
// comment, "Bucket phases".

// phaseMin is the fewest events, deliveries and acks together, of a bucket
// that runs as phases. Buckets holding 99.8 % of the events of wpaxos on
// expander:4096:8 and all of twophase's on clique:1024 reach it (arrays
// alone: 89 % and 99.9 %, no ack array among them); floodpaxos on
// expander:1024:8 (buckets up to ~2 200 events) read slower with phases
// at 1024 and 2048, its handlers being too cheap to pay for the fan-out,
// merge and replay (CHANGES.md has the distributions and the A/B).
const phaseMin = 4096

// Passes of a phase. The owing nodes — those that owe a decision
// (Engine.owes) and are undecided when the phase starts — run first, each
// up to and including the event at which it decides; that fixes the stop
// index, and the second pass runs everything else below it.
const (
	passOwing = iota
	passRest
)

// phases is an engine's parallel-phase state. Everything in it is written
// by the goroutine that runs Engine.drain between passes; during a pass
// each worker writes only its own phaseWorker and the entries of marks
// for its own nodes, and claim advances ticket atomically.
type phases struct {
	pass  int
	limit int32 // events at or past limit are not run in this pass
	// The array of the phase: dels, or acks when dels is nil.
	dels []delivery
	acks []ack
	// The workers' spans cut nodes into runs of chunk; the last ones may be
	// shorter or empty.
	nodes, chunk int
	workers      []phaseWorker
	// marks[v] records, for an owing node v that decided in the first pass
	// of phase epoch, the index of that event; the second pass runs only
	// v's later events. An entry from an older phase never matches.
	marks []phaseMark
	epoch uint32

	// ticket hands out the workers of the current pass: the worker count
	// in the high 32 bits, the next unclaimed worker in the low 32. A
	// claimed-out pass leaves the two equal, so a job that arrives late
	// claims nothing. wg counts the workers of the pass still running.
	ticket atomic.Uint64
	wg     sync.WaitGroup
}

type phaseMark struct {
	epoch uint32
	at    int32
}

// phaseWorker is one worker's share of a phase. The counters are summed
// into the Result after the phase; the padding keeps two workers' counters
// off one cache line.
type phaseWorker struct {
	cur                        int32 // index of the event being handled
	owed                       int   // owing nodes that decided
	lastOwed                   int32 // index of the latest such decide
	decided                    bool  // some node decided (MaxDecideTime)
	deferred                   bool  // the first pass left events to the second
	deliveries, acks, discards int
	// logs holds the engine halves of each pass, indexed by pass, each in
	// event order; next is replay's cursor into each.
	logs [2][]phaseOp
	next [2]int

	panicked bool
	panicAt  int32
	panicVal any

	_ [64]byte
}

// phaseOp is the engine half of one thing a handler did: a broadcast of
// msg with sequence number seq, or, when msg is nil, a violation.
type phaseOp struct {
	at   int32 // the event whose handler did it
	node int32
	seq  int
	msg  amac.Message
	desc string
}

// phaseSafe reports whether s is one of the package's own schedulers —
// Synchronous, MaxDelay, Random, EdgeOrder, or Lossy, Gate or SlowSubset
// around one of them. Only those runs take parallel phases: any other
// scheduler may watch the execution (Replay, ScheduleRecorder and
// Fingerprinter do, and a tracer that brackets handlers with spans does
// too), and keeps the sequential loop.
func phaseSafe(s Scheduler) bool {
	p, ok := s.(interface{ phaseSafe() bool })
	return ok && p.phaseSafe()
}

func (Synchronous) phaseSafe() bool  { return true }
func (MaxDelay) phaseSafe() bool     { return true }
func (*Random) phaseSafe() bool      { return true }
func (*EdgeOrder) phaseSafe() bool   { return true }
func (s Gate) phaseSafe() bool       { return phaseSafe(s.Base) }
func (s SlowSubset) phaseSafe() bool { return phaseSafe(s.Base) }
func (s *Lossy) phaseSafe() bool     { return phaseSafe(s.Base) }

// draining counts the engines of the process inside drain. A phase takes
// only the Ps the other draining engines leave it, so engines that already
// hold every P — a parallel sweep — keep the sequential loop.
var draining atomic.Int32

// phaseWidth returns how many workers run the phases of the current
// bucket, which holds n events, or 1 for the sequential loop. Phases need
// at least phaseMin events, two or more Ps no other draining engine holds,
// a run nothing watches (no Observer, so no run under the test oracle, and
// no Metrics), a bucket inside the event budget, a stop rule that has not
// already fired, and one of the package's schedulers. The size test comes first and alone, so
// that it inlines into drain and a small bucket pays no call.
func (e *Engine) phaseWidth(n int) int {
	if n < phaseMin && e.forcePhases == 0 {
		return 1
	}
	return e.phaseWidthLarge(n)
}

func (e *Engine) phaseWidthLarge(n int) int {
	w := e.forcePhases
	if w == 0 {
		if !phaseSafe(e.cfg.Scheduler) {
			return 1
		}
		w = runtime.GOMAXPROCS(0) - int(draining.Load()) + 1
	}
	if w < 2 || e.cfg.Observer != nil || e.cfg.Metrics != nil ||
		e.res.Events+n > e.maxEvt || e.undecided == 0 {
		return 1
	}
	return min(w, len(e.algs))
}

// phase runs one array of the bucket at e.now on w workers — dels, or acks
// when dels is nil — and reports whether the last owed decision ended the
// run inside it. A handler panic is re-raised here once the events before it
// have been replayed, the lowest event index first.
func (e *Engine) phase(w int, dels []delivery, acks []ack) bool {
	if e.par == nil {
		e.par = new(phases)
	}
	p := e.par
	p.arm(w, len(e.algs))
	p.dels, p.acks = dels, acks
	n := int32(len(dels) + len(acks))
	limit, stop := n, false
	e.phasing = true
	p.run(e, passOwing, n)
	owed, last, deferred := 0, int32(-1), false
	for i := range p.workers {
		wk := &p.workers[i]
		owed += wk.owed
		last = max(last, wk.lastOwed)
		deferred = deferred || wk.deferred
	}
	if owed == e.undecided {
		limit, stop = last+1, true
	}
	if wk := p.panicked(); wk != nil {
		limit = min(limit, wk.panicAt)
	}
	if deferred {
		p.run(e, passRest, limit)
	}
	e.phasing = false

	end, failed := limit, p.panicked()
	if failed != nil {
		end = failed.panicAt + 1
	}
	e.replay(end)
	if failed != nil {
		panic(failed.panicVal)
	}
	for i := range p.workers {
		wk := &p.workers[i]
		e.res.Deliveries += wk.deliveries
		e.res.Acks += wk.acks
		e.res.Discards += wk.discards
		e.undecided -= wk.owed
		if wk.decided {
			e.res.MaxDecideTime = max(e.res.MaxDecideTime, e.now)
		}
	}
	e.res.Events += int(limit)
	e.q.count -= int(limit)
	return stop
}

// arm sizes the phase for w workers over n nodes and starts a new epoch.
// The logs keep their arrays from phase to phase.
func (p *phases) arm(w, n int) {
	if cap(p.workers) < w {
		p.workers = append(p.workers[:cap(p.workers)], make([]phaseWorker, w-cap(p.workers))...)
	}
	p.workers = p.workers[:w]
	for i := range p.workers {
		wk := &p.workers[i]
		*wk = phaseWorker{logs: [2][]phaseOp{wk.logs[0][:0], wk.logs[1][:0]}, lastOwed: -1}
	}
	p.nodes, p.chunk = n, (n+w-1)/w
	if len(p.marks) < n {
		p.marks = make([]phaseMark, n)
	}
	p.epoch++
	if p.epoch == 0 {
		clear(p.marks)
		p.epoch = 1
	}
}

// span returns the nodes [lo, hi) worker w owns. With owner it is the one
// node-to-worker map: a worker's pass walks its span, and owner finds the
// worker of a handler's Broadcast and Decide.
func (p *phases) span(w int) (lo, hi int32) {
	return int32(min(w*p.chunk, p.nodes)), int32(min((w+1)*p.chunk, p.nodes))
}

// owner returns the worker whose span holds node v.
func (p *phases) owner(v int) *phaseWorker {
	return &p.workers[v/p.chunk]
}

// record appends op to the log of node v's worker, tagged with the event
// being handled.
func (p *phases) record(v int, op phaseOp) {
	wk := p.owner(v)
	op.at, op.node = wk.cur, int32(v)
	wk.logs[p.pass] = append(wk.logs[p.pass], op)
}

// decided notes node v's first decide; owing tells whether it was an owing
// node, whose decide ends its first pass.
func (p *phases) decided(v int, owing bool) {
	wk := p.owner(v)
	wk.decided = true
	if owing {
		wk.owed++
		wk.lastOwed = wk.cur
		p.marks[v] = phaseMark{epoch: p.epoch, at: wk.cur}
	}
}

// phasePool helps every engine's passes: an engine sent on jobs asks a
// pool goroutine to claim workers of its current pass. The goroutines
// start on first need and stay for the life of the process; engines
// running side by side share them, and a job only claims workers no one
// has started, so a busy pool leaves them to the engine's own goroutine.
var phasePool struct {
	mu   sync.Mutex
	size int
	jobs chan *Engine
}

// phaseJobs returns the pool's job channel with at least n goroutines
// reading it.
func phaseJobs(n int) chan<- *Engine {
	phasePool.mu.Lock()
	defer phasePool.mu.Unlock()
	if phasePool.jobs == nil {
		phasePool.jobs = make(chan *Engine, 64)
	}
	for ; phasePool.size < n; phasePool.size++ {
		go phaseLoop(phasePool.jobs)
	}
	return phasePool.jobs
}

func phaseLoop(jobs <-chan *Engine) {
	for e := range jobs {
		e.claim()
	}
}

// run runs one pass over the events below limit. It offers the workers to
// the pool, runs every worker the pool has not started on the calling
// goroutine, and returns when all are done: when every P is busy the pass
// degrades to the workers one after another rather than waiting for the
// pool.
func (p *phases) run(e *Engine, pass int, limit int32) {
	p.pass, p.limit = pass, limit
	w := len(p.workers)
	p.wg.Add(w)
	p.ticket.Store(uint64(w) << 32)
	jobs := phaseJobs(w - 1)
	for range w - 1 {
		select {
		case jobs <- e:
		default: // the pool is behind; claim runs it here
		}
	}
	e.claim()
	p.wg.Wait()
}

// claim runs workers of e's current pass until none is left unclaimed. A
// job that arrives between passes finds none and touches nothing but the
// ticket; one that arrives during a later pass than its own helps that
// one, whose state the ticket's store published.
func (e *Engine) claim() {
	t := &e.par.ticket
	for {
		x := t.Load()
		if uint32(x) >= uint32(x>>32) {
			return
		}
		if t.CompareAndSwap(x, x+1) {
			e.work(int(uint32(x)))
		}
	}
}

// work is worker w's part of the current pass. A panic stops the worker
// and is kept, with the index of its event, for phase to re-raise.
func (e *Engine) work(w int) {
	p := e.par
	wk := &p.workers[w]
	defer p.wg.Done()
	defer func() {
		if r := recover(); r != nil && (!wk.panicked || wk.cur < wk.panicAt) {
			wk.panicked, wk.panicAt, wk.panicVal = true, wk.cur, r
		}
	}()
	lo, hi := p.span(w)
	for i := int32(0); i < p.limit; i++ {
		var v int32
		if p.dels != nil {
			v = p.dels[i].node
		} else {
			v = p.acks[i].node
		}
		if v < lo || v >= hi {
			continue
		}
		switch p.pass {
		case passOwing:
			if !e.owes(int(v)) || e.res.Decided[v] {
				wk.deferred = true
				continue
			}
		case passRest:
			if m := p.marks[v]; e.owes(int(v)) && (!e.res.Decided[v] || m.epoch == p.epoch && i <= m.at) {
				continue
			}
		}
		wk.cur = i
		if p.dels != nil {
			if e.deliver(int(v), int(p.dels[i].peer)) {
				wk.deliveries++
			}
		} else if e.ack(int(v), p.acks[i].bseq) {
			wk.acks++
		}
	}
}

// panicked returns the worker that panicked at the lowest event index, or
// nil.
func (p *phases) panicked() *phaseWorker {
	var first *phaseWorker
	for i := range p.workers {
		if wk := &p.workers[i]; wk.panicked && (first == nil || wk.panicAt < first.panicAt) {
			first = wk
		}
	}
	return first
}

// replay runs the logged engine halves of the events below end in event
// order — a merge of the workers' logs, each already in order — and drops
// the logged messages so that they do not outlive the phase.
func (e *Engine) replay(end int32) {
	p := e.par
	for {
		var op *phaseOp
		var from *int
		for i := range p.workers {
			wk := &p.workers[i]
			for k := range wk.logs {
				if c := wk.next[k]; c < len(wk.logs[k]) && wk.logs[k][c].at < end && (op == nil || wk.logs[k][c].at < op.at) {
					op, from = &wk.logs[k][c], &wk.next[k]
				}
			}
		}
		if op == nil {
			break
		}
		*from++
		if op.msg == nil {
			e.res.Violations = append(e.res.Violations, Violation{Time: e.now, Node: int(op.node), Desc: op.desc})
		} else {
			e.send(int(op.node), op.seq, op.msg)
		}
	}
	for i := range p.workers {
		for k := range p.workers[i].logs {
			clear(p.workers[i].logs[k])
		}
	}
}
