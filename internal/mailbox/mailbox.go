// Package mailbox provides an unbounded multi-producer single-consumer
// queue. The abstract MAC layer model has no backpressure on receives —
// deliveries happen when the scheduler says so — so the wall-clock runtime
// (internal/live) funnels every MAC's deliveries and acknowledgments
// through one of these per node.
package mailbox

import "sync"

// Mailbox is an unbounded MPSC queue of T. Push never blocks; Pop blocks
// until an element or a Close arrives. The zero value is not usable; call
// New.
type Mailbox[T any] struct {
	mu     sync.Mutex
	items  []T
	notify chan struct{} // capacity 1: a wakeup token
	closed bool
}

// New returns an empty mailbox.
func New[T any]() *Mailbox[T] {
	return &Mailbox[T]{notify: make(chan struct{}, 1)}
}

// Push appends an item; it is a no-op after Close.
func (m *Mailbox[T]) Push(item T) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.items = append(m.items, item)
	m.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// Pop removes the next item, blocking until one is available; ok is false
// once the mailbox is closed and drained.
func (m *Mailbox[T]) Pop() (item T, ok bool) {
	for {
		m.mu.Lock()
		if len(m.items) > 0 {
			item = m.items[0]
			m.items = m.items[1:]
			m.mu.Unlock()
			return item, true
		}
		closed := m.closed
		m.mu.Unlock()
		if closed {
			var zero T
			return zero, false
		}
		<-m.notify
	}
}

// Len returns the current queue length.
func (m *Mailbox[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}

// Close wakes any blocked Pop and rejects further Pushes. Items already
// queued are still drained by subsequent Pops.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
}
