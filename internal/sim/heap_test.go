package sim

import "testing"

// refHeap is the reference event queue: a quaternary min-heap under the
// model's event order, the oracle eventQueue's pop order is tested against.
type refHeap struct {
	evs []event
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

func (h *refHeap) push(ev event) {
	h.evs = append(h.evs, ev)
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

func (h *refHeap) pop() event {
	top := h.evs[0]
	n := len(h.evs) - 1
	h.evs[0] = h.evs[n]
	h.evs[n] = event{}
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
// mirrored into it, and every event the engine pops must be the heap's
// minimum. It returns a func reporting how many pops were checked. Call it
// after NewEngine/Reset and before Run.
func (e *Engine) CheckQueueOrder(t testing.TB) (checked func() int) {
	var h refHeap
	pops := 0
	e.queueHook = func(ev event, popped bool) {
		if !popped {
			h.push(ev)
			return
		}
		pops++
		if len(h.evs) == 0 {
			t.Fatalf("pop %d: engine popped %+v, reference heap is empty", pops, ev)
		}
		// seq is unique per event; the other fields are compared so a slab
		// slot recycled under a live event shows up as well.
		want := h.pop()
		if ev.seq != want.seq || ev.time != want.time || ev.kind != want.kind ||
			ev.node != want.node || ev.peer != want.peer || ev.bseq != want.bseq {
			t.Fatalf("pop %d: engine popped %+v, reference heap has %+v", pops, ev, want)
		}
	}
	return func() int { return pops }
}

// QueueSpan exposes the ring size Reset chose for the current scheduler.
func (e *Engine) QueueSpan() int64 { return e.q.span }
