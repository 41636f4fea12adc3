package sim

import "testing"

// refHeap is the reference event queue: a quaternary min-heap under the
// model's event order, the oracle eventQueue's pop order is tested against.
type refHeap struct {
	evs    []refEvent
	pushed int64
}

// refEvent is an event with the two things the queue no longer stores: its
// time, and the insertion sequence number the oracle stamps on every push
// it sees.
type refEvent struct {
	event
	time, seq int64
}

// less is the model's event order: time, then deliveries before acks (the
// paper's synchronous scheduler delivers every co-timed message before any
// co-timed ack), then deterministically by insertion sequence.
func (h *refHeap) less(a, b int) bool {
	ea, eb := &h.evs[a], &h.evs[b]
	if ea.time != eb.time {
		return ea.time < eb.time
	}
	if ea.kind != eb.kind {
		return ea.kind == EventDeliver
	}
	return ea.seq < eb.seq
}

func (h *refHeap) push(t int64, ev event) {
	h.evs = append(h.evs, refEvent{event: ev, time: t, seq: h.pushed})
	h.pushed++
	i := len(h.evs) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			break
		}
		h.evs[i], h.evs[parent] = h.evs[parent], h.evs[i]
		i = parent
	}
}

func (h *refHeap) pop() refEvent {
	top := h.evs[0]
	n := len(h.evs) - 1
	h.evs[0] = h.evs[n]
	h.evs[n] = refEvent{}
	h.evs = h.evs[:n]
	if n > 0 {
		h.siftDown(0)
	}
	return top
}

func (h *refHeap) siftDown(i int) {
	n := len(h.evs)
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
			if h.less(c, min) {
				min = c
			}
		}
		if !h.less(min, i) {
			return
		}
		h.evs[i], h.evs[min] = h.evs[min], h.evs[i]
		i = min
	}
}

// CheckQueueOrder arms e's queue hook with a reference heap: every push is
// mirrored into it, and every event the engine processes must be the
// heap's minimum. It returns a func reporting how many events were
// checked. Call it after NewEngine/Reset and before Run.
func (e *Engine) CheckQueueOrder(t testing.TB) (checked func() int) {
	var h refHeap
	pops := 0
	e.queueHook = func(tm int64, ev event, popped bool) {
		if !popped {
			h.push(tm, ev)
			return
		}
		pops++
		if len(h.evs) == 0 {
			t.Fatalf("pop %d: engine popped %+v at t=%d, reference heap is empty", pops, ev, tm)
		}
		// The popped event has no seq to compare, and needs none: a node
		// has one broadcast in flight, so (time, kind, node, peer) already
		// names one queued event, and every field is compared (bseq is
		// zero on deliveries on both sides).
		if want := h.pop(); tm != want.time || ev != want.event {
			t.Fatalf("pop %d: engine popped %+v at t=%d, reference heap has %+v", pops, ev, tm, want)
		}
	}
	return func() int { return pops }
}

// QueueSpan exposes the ring size Reset chose for the current scheduler.
func (e *Engine) QueueSpan() int64 { return e.q.span }

// QueueCap sums the capacities of every bucket array the engine owns: it
// stays flat across warm runs unless a run appends behind stale entries.
func (e *Engine) QueueCap() int {
	n := 0
	for _, b := range e.q.buckets[:cap(e.q.buckets)] {
		n += cap(b.dels) + cap(b.acks)
	}
	return n
}
