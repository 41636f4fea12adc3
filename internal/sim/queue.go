package sim

import "math/bits"

// eventQueue is the engine's pending-event queue: a bounded-horizon
// calendar queue in front of a quaternary-heap overflow, over a dense
// value slab of events.
//
// The model makes the hot path O(1). validatePlan admits only plans whose
// deliveries and ack land in (Now, Now+Fack], so at any instant every
// queued event lives within one Fack window of the clock — the queue is a
// bounded-horizon scheduler, which is exactly the regime where a calendar
// (timing-wheel) structure beats a heap: a ring of per-time buckets
// spanning the window, push = append to a bucket FIFO, pop = advance the
// clock cursor to the next nonempty bucket (found by a bitmap scan, not a
// walk) and take its head. No sifting, no O(log q) — a 36k-event backlog
// on expander:4096 costs the same per operation as an empty queue.
//
// The pop order is byte-identical to the heap it replaced. The engine's
// event order is (time, deliveries before acks, insertion seq), seq is
// assigned monotonically, and a FIFO preserves insertion order — so one
// FIFO chain per (bucket, kind) reproduces the total order exactly: the
// cursor visits times in order, and within a time the deliver chain
// drains before the ack chain, each in seq order. Identity is pinned by
// the golden grid JSON, both committed replay artifacts, the schedule
// fingerprint tests, and the harness differential queue test, which runs
// calendar and reference-heap engines side by side.
//
// Two escape hatches keep the structure exact rather than approximate:
//
//   - Overflow heap. Wrapping schedulers may declare horizons wider than
//     the ring (Gate's Fack covers its Until delay; SlowSubset multiplies
//     its base bound). Events past the ring window go to a quaternary
//     min-heap of slab indices — the pre-calendar queue, verbatim — and
//     migrate into the ring as the cursor advances. Migration happens in
//     heap-pop order, which is the event order, and strictly before any
//     new push can target the newly exposed buckets (both happen inside
//     pop, before control returns to the engine), so chains stay sorted.
//   - Value slab. Events live in one []event indexed by int32, free slots
//     chained through the intrusive next link. Push recycles a slot or
//     appends (growing the slab amortizes to one allocation per doubling,
//     where the old pointer freelist paid one per event), pop returns the
//     event by value and frees the slot immediately — the engine never
//     holds a reference into the slab across algorithm callbacks, which
//     may push and grow it.
//
// Config.QueueWindow tunes the hybrid: 0 sizes the ring to the
// scheduler's declared Fack (capped at defaultQueueWindow), a positive
// value caps the ring lower (forcing overflow traffic — the differential
// tests use tiny windows to stress migration), and a negative value
// disables the ring so every event flows through the reference heap.
// Every setting yields the same execution; only the constants move.
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
	// time with a word scan. ringN counts ring-resident events.
	span    int64
	mask    int64
	cur     int64
	buckets []bucket
	bits    []uint64
	ringN   int

	// heap is the overflow quaternary min-heap of slab indices, holding
	// only events at or past cur+span.
	heap []int32
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

// defaultQueueWindow caps the ring span when Config.QueueWindow is 0:
// 4096 buckets is 64KiB of bucket headers, enough to cover every
// registered scheduler's horizon short of Gate with a very late Until —
// and those far events belong in the overflow heap anyway.
const defaultQueueWindow = 1 << 12

// init re-arms the queue for a scheduler horizon of fack, honoring the
// Config.QueueWindow override. The queue must be empty (Reset drains it
// first); the slab and free chain persist untouched.
func (q *eventQueue) init(fack, window int64) {
	span := int64(0)
	if window >= 0 {
		limit := int64(defaultQueueWindow)
		if window > 0 {
			// Round a positive cap down to a power of two so bucket
			// lookup stays a mask.
			limit = 1
			for limit*2 <= window {
				limit *= 2
			}
		}
		// Smallest power of two covering (now, now+fack], capped: with
		// span > fack every admissible event fits the ring and the
		// overflow heap never engages.
		span = 1
		for span <= fack && span < limit {
			span <<= 1
		}
	}
	q.span = span
	q.mask = span - 1
	q.cur = 0
	q.ringN = 0
	q.heap = q.heap[:0]
	if span > 0 {
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
}

func (q *eventQueue) len() int { return q.count }

// push enqueues ev, reusing a slot from the free chain when there is one.
func (q *eventQueue) push(ev event) {
	idx := q.free
	if idx != nilEvent {
		q.free = q.slab[idx].next
		q.slab[idx] = ev
	} else {
		q.slab = append(q.slab, ev)
		idx = int32(len(q.slab) - 1)
	}
	q.slab[idx].next = nilEvent
	if q.span > 0 && ev.time-q.cur < q.span {
		q.link(idx, ev.time, ev.kind)
	} else {
		q.heapPush(idx)
	}
	q.count++
}

// pop removes and returns the minimum event by value, recycling its slab
// slot immediately (the message reference is cleared so pooled slots do
// not retain algorithm payloads). It panics on an empty queue (the
// engine's run loop checks len first).
func (q *eventQueue) pop() event {
	var idx int32
	switch {
	case q.ringN > 0:
		// The earliest ring event precedes every heap event: ring times
		// are below cur+span, heap times at or past it.
		t := q.nextBucketTime()
		q.advance(t)
		idx = q.unlinkMin(t)
	case q.span > 0 && len(q.heap) > 0:
		// Ring empty: jump the cursor to the heap minimum, which
		// migrates a window of far events in, then pop normally.
		t := q.slab[q.heap[0]].time
		q.advance(t)
		idx = q.unlinkMin(t)
	default:
		idx = q.heapPop()
	}
	ev := q.slab[idx]
	q.slab[idx].msg = nil
	q.slab[idx].next = q.free
	q.free = idx
	q.count--
	ev.next = nilEvent
	return ev
}

// drain empties the queue in one pass over the slab, rebuilding the free
// chain over every slot and dropping all message references — bucket and
// heap order are irrelevant to a recycling pass.
func (q *eventQueue) drain() {
	for i := range q.slab {
		q.slab[i].msg = nil
		q.slab[i].next = int32(i) - 1
	}
	q.free = int32(len(q.slab)) - 1
	q.count = 0
	q.ringN = 0
	q.heap = q.heap[:0]
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
	q.ringN++
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
	q.ringN--
	return idx
}

// advance moves the cursor to t (the time about to be popped) and
// migrates every heap event that the widened window [t, t+span) now
// covers into the ring. Heap pops come out in full event order, so each
// (bucket, kind) chain receives its migrants in seq order; and because
// migration completes inside pop, no direct push can reach a newly
// exposed bucket first — chains never interleave out of order.
func (q *eventQueue) advance(t int64) {
	q.cur = t
	if len(q.heap) == 0 {
		return
	}
	horizon := t + q.span
	for len(q.heap) > 0 && q.slab[q.heap[0]].time < horizon {
		idx := q.heapPop()
		ev := &q.slab[idx]
		ev.next = nilEvent
		q.link(idx, ev.time, ev.kind)
	}
}

// nextBucketTime returns the absolute time of the earliest nonempty
// bucket at or after cur — a circular bitmap scan from the cursor's
// bucket, one word compare per 64 buckets. Must only be called with
// ringN > 0.
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
	panic("sim: event ring bitmap empty with ringN > 0")
}

// --- overflow heap: the pre-calendar quaternary min-heap, on slab indices ---

// less is the model's event order: time, then deliveries before acks (the
// paper's synchronous scheduler delivers every co-timed message before any
// co-timed ack), then deterministically by insertion sequence.
func (q *eventQueue) less(a, b int32) bool {
	ea, eb := &q.slab[a], &q.slab[b]
	if ea.time != eb.time {
		return ea.time < eb.time
	}
	if ea.kind != eb.kind {
		return ea.kind == EventDeliver
	}
	return ea.seq < eb.seq
}

func (q *eventQueue) heapPush(idx int32) {
	q.heap = append(q.heap, idx)
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q.less(q.heap[i], q.heap[parent]) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *eventQueue) heapPop() int32 {
	top := q.heap[0]
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		q.siftDown(0)
	}
	return top
}

func (q *eventQueue) siftDown(i int) {
	n := len(q.heap)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.less(q.heap[c], q.heap[min]) {
				min = c
			}
		}
		if !q.less(q.heap[min], q.heap[i]) {
			return
		}
		q.heap[i], q.heap[min] = q.heap[min], q.heap[i]
		i = min
	}
}
