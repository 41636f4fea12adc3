package sim

import (
	"fmt"
	"math/bits"
)

// eventQueue is the engine's pending-event queue: a calendar ring of
// per-time buckets over a dense value slab of events.
//
// Invariant: the ring covers the scheduler's declared horizon. validatePlan
// admits only plans whose deliveries and ack land in (Now, Now+Fack], and
// Now is the time of the last pop, so every queued event lies in
// [cur, cur+Fack]. init sizes the ring to the smallest power of two above
// Fack (Config.Validate bounds Fack by MaxFack), which makes time
// -> bucket a mask and gives every live time its own bucket; push panics
// on an event outside that window, so a plan that slipped past
// validatePlan cannot alias an earlier bucket. Push appends to a bucket
// FIFO and pop advances the cursor to the next nonempty bucket by a bitmap
// word scan — both O(1) regardless of backlog.
//
// Order: the engine's event order is (time, deliveries before acks,
// insertion seq). seq is assigned monotonically and a FIFO preserves
// insertion order, so one FIFO chain per (bucket, kind) reproduces the
// total order exactly: the cursor visits times in order, and within a time
// the deliver chain drains before the ack chain, each in seq order. The
// reference for that order is the quaternary heap in heap_test.go, which
// the differential test attaches through Engine.queueHook and compares
// against on every pop.
//
// Slab: events live in one []event indexed by int32, free slots chained
// through the intrusive next link. Push recycles a slot or appends, pop
// returns the event by value and frees the slot immediately — the engine
// never holds a reference into the slab across algorithm callbacks, which
// may push and grow it.
type eventQueue struct {
	// slab is the dense event store; free heads the chain of recycled
	// slots threaded through event.next. count is the queue's size.
	slab  []event
	free  int32
	count int

	// The calendar ring: span buckets (a power of two, so time maps to a
	// bucket by mask) covering absolute times [cur, cur+span). cur is the
	// time of the last pop — no queued event is earlier. bits marks
	// nonempty buckets, one bit per bucket, so pop finds the next event
	// time with a word scan.
	span    int64
	mask    int64
	cur     int64
	buckets []bucket
	bits    []uint64
}

// bucket holds two intrusive FIFO chains of slab indices: chain 0 for
// deliveries, chain 1 for acks, matching the model's deliveries-first
// order within a time step.
type bucket struct {
	head [2]int32
	tail [2]int32
}

// nilEvent is the slab's nil index (chain terminators, empty free list).
const nilEvent int32 = -1

// init re-arms the queue for a scheduler horizon of fack: the ring gets
// the smallest power-of-two span above fack. The queue must be empty
// (Reset drains it first); the slab and free chain persist untouched.
func (q *eventQueue) init(fack int64) {
	span := int64(1)
	for span <= fack {
		span <<= 1
	}
	q.span = span
	q.mask = span - 1
	q.cur = 0
	words := int((span + 63) >> 6)
	if int64(cap(q.buckets)) >= span {
		q.buckets = q.buckets[:span]
		q.bits = q.bits[:words]
	} else {
		q.buckets = make([]bucket, span)
		q.bits = make([]uint64, words)
	}
	for i := range q.buckets {
		q.buckets[i] = bucket{
			head: [2]int32{nilEvent, nilEvent},
			tail: [2]int32{nilEvent, nilEvent},
		}
	}
	clear(q.bits)
}

func (q *eventQueue) len() int { return q.count }

// push enqueues ev, reusing a slot from the free chain when there is one.
// An event outside [cur, cur+span) would alias another time's bucket; the
// ring covers the declared horizon, so that is a broken invariant.
func (q *eventQueue) push(ev event) {
	if d := ev.time - q.cur; d < 0 || d >= q.span {
		panic(fmt.Sprintf("sim: event at t=%d outside the queue ring [%d, %d)", ev.time, q.cur, q.cur+q.span))
	}
	idx := q.free
	if idx != nilEvent {
		q.free = q.slab[idx].next
		q.slab[idx] = ev
	} else {
		q.slab = append(q.slab, ev)
		idx = int32(len(q.slab) - 1)
	}
	q.slab[idx].next = nilEvent
	q.link(idx, ev.time, ev.kind)
	q.count++
}

// pop removes and returns the minimum event by value, recycling its slab
// slot immediately (the message reference is cleared so pooled slots do
// not retain algorithm payloads). It panics on an empty queue (the
// engine's run loop checks len first).
func (q *eventQueue) pop() event {
	q.cur = q.nextBucketTime()
	idx := q.unlinkMin(q.cur)
	ev := q.slab[idx]
	q.slab[idx].msg = nil
	q.slab[idx].next = q.free
	q.free = idx
	q.count--
	ev.next = nilEvent
	return ev
}

// drain empties the queue in one pass over the slab, rebuilding the free
// chain over every slot and dropping all message references — bucket
// order is irrelevant to a recycling pass.
func (q *eventQueue) drain() {
	for i := range q.slab {
		q.slab[i].msg = nil
		q.slab[i].next = int32(i) - 1
	}
	q.free = int32(len(q.slab)) - 1
	q.count = 0
	// Ring chains and bits are rebuilt by init, which Reset calls next.
}

// link appends slab index idx to the FIFO chain for (time t, kind) and
// marks the bucket nonempty.
func (q *eventQueue) link(idx int32, t int64, kind EventKind) {
	bi := t & q.mask
	b := &q.buckets[bi]
	k := 0
	if kind != EventDeliver {
		k = 1
	}
	if tail := b.tail[k]; tail != nilEvent {
		q.slab[tail].next = idx
	} else {
		b.head[k] = idx
	}
	b.tail[k] = idx
	q.bits[bi>>6] |= 1 << uint(bi&63)
}

// unlinkMin removes and returns the head of bucket t's deliver chain, or
// its ack chain when no deliveries remain — the model's within-time order.
func (q *eventQueue) unlinkMin(t int64) int32 {
	bi := t & q.mask
	b := &q.buckets[bi]
	k := 0
	if b.head[0] == nilEvent {
		k = 1
	}
	idx := b.head[k]
	b.head[k] = q.slab[idx].next
	if b.head[k] == nilEvent {
		b.tail[k] = nilEvent
		if b.head[1-k] == nilEvent {
			q.bits[bi>>6] &^= 1 << uint(bi&63)
		}
	}
	return idx
}

// nextBucketTime returns the absolute time of the earliest nonempty
// bucket at or after cur — a circular bitmap scan from the cursor's
// bucket, one word compare per 64 buckets. Must only be called on a
// nonempty queue.
func (q *eventQueue) nextBucketTime() int64 {
	start := q.cur & q.mask
	wi := int(start >> 6)
	if w := q.bits[wi] & (^uint64(0) << uint(start&63)); w != 0 {
		b := int64(wi<<6) + int64(bits.TrailingZeros64(w))
		return q.cur + ((b - start) & q.mask)
	}
	words := len(q.bits)
	for i := 1; i <= words; i++ {
		j := wi + i
		if j >= words {
			j -= words
		}
		if w := q.bits[j]; w != 0 {
			b := int64(j<<6) + int64(bits.TrailingZeros64(w))
			return q.cur + ((b - start) & q.mask)
		}
	}
	panic("sim: pop from an empty event queue")
}
