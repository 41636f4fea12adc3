package sim

import (
	"fmt"
	"math/bits"
)

// eventQueue is the engine's pending-event queue: a calendar ring of
// per-time buckets, each a pair of append-only arrays of payload-free
// entries, which the engine drains a whole bucket at a time.
//
// Invariant: the ring covers the scheduler's declared horizon. validatePlan
// admits only plans whose deliveries and ack land in (Now, Now+Fack], and
// Now is the time of the bucket being drained, so every queued event lies
// in [cur, cur+Fack] and no handler pushes into the bucket being drained.
// init sizes the ring to the smallest power of two above Fack
// (Config.Validate bounds Fack by MaxFack), which makes time -> bucket a
// mask and gives every live time its own bucket; a push panics on an event
// outside that window, so a plan that slipped past validatePlan cannot
// alias an earlier bucket. A push appends to a bucket array and sets the
// bucket's bit; nextBucketTime finds the next nonempty bucket by a bitmap
// word scan. Engine.drain reads that bucket's arrays in place and then
// resets the bucket and clears its bit (see drained).
//
// Order: the engine's event order is (time, deliveries before acks,
// insertion order). An array read front to back is insertion order, so one
// array per (bucket, kind) reproduces the total order exactly: the cursor
// visits times in order, and within a time the delivery array drains before
// the ack array. The test oracle (oracle_test.go) checks that order from
// outside the engine.
//
// Entries carry no time (it is the bucket), no sequence number (it is the
// array position) and no message: the abstract MAC layer gives a node one
// outstanding broadcast, and validatePlan puts each of its deliveries at or
// before its ack with co-timed deliveries first, so the message of a queued
// delivery is the sender's in-flight message, which the engine keeps once
// per sender in inMsg. An entry is 8 bytes of two narrowed indices
// (Config.Validate bounds the node count by MaxNodes) with no pointer in
// it.
type eventQueue struct {
	// count is the number of queued events not yet processed.
	count int

	// The calendar ring: span buckets (a power of two, so time maps to a
	// bucket by mask) covering absolute times [cur, cur+span). cur is the
	// time of the bucket last drained or being drained — no queued event is
	// earlier. bits marks buckets holding entries, one bit per bucket, so
	// nextBucketTime is a word scan. A bit stays set until its bucket is
	// reset, so a run stopped mid-bucket leaves the bit for init to find.
	span    int64
	mask    int64
	cur     int64
	buckets []bucket
	bits    []uint64

	// delBlock and ackBlock are the unused tails of the blocks that small
	// bucket arrays are carved from (see carve).
	delBlock []delivery
	ackBlock []ack
}

// delivery and ack are the queue's two entry shapes.
type (
	delivery struct{ node, peer int32 } // receiver, sender
	ack      struct{ node, bseq int32 } // sender, its broadcast
)

// bucket holds one time step's events: deliveries drain before acks,
// matching the model's deliveries-first order. A drained bucket is
// truncated in place, so its arrays are reused the next time the ring
// comes round.
type bucket struct {
	dels []delivery
	acks []ack
}

func (b *bucket) reset() { b.dels, b.acks = b.dels[:0], b.acks[:0] }

// init empties the queue and re-arms it for a scheduler horizon of fack:
// the ring gets the smallest power-of-two span above fack. Every bucket
// still marked in bits is reset first. That is not only the count > 0
// case: a run stopped on the last event of a bucket leaves the queue empty
// but that bucket undrained, and a later run would append behind its
// stale entries. Bucket arrays persist for the next run.
func (q *eventQueue) init(fack int64) {
	for wi, w := range q.bits {
		for ; w != 0; w &= w - 1 {
			q.buckets[wi<<6+bits.TrailingZeros64(w)].reset()
		}
	}
	q.count = 0
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
	clear(q.bits)
}

func (q *eventQueue) len() int { return q.count }

// pushDelivery enqueues the delivery of peer's message to node at time t,
// behind every queued delivery of that time.
func (q *eventQueue) pushDelivery(t int64, node, peer int32) {
	bi := q.index(t)
	b := &q.buckets[bi]
	if len(b.dels) == cap(b.dels) && cap(b.dels) < carveMax {
		b.dels = carve(&q.delBlock, b.dels)
	}
	b.dels = append(b.dels, delivery{node: node, peer: peer})
	q.mark(bi)
}

// pushAck enqueues the ack of node's broadcast bseq at time t, behind every
// queued ack of that time.
func (q *eventQueue) pushAck(t int64, node, bseq int32) {
	bi := q.index(t)
	b := &q.buckets[bi]
	if len(b.acks) == cap(b.acks) && cap(b.acks) < carveMax {
		b.acks = carve(&q.ackBlock, b.acks)
	}
	b.acks = append(b.acks, ack{node: node, bseq: bseq})
	q.mark(bi)
}

// index returns the bucket of time t. A time outside [cur, cur+span) would
// alias another time's bucket; the ring covers the declared horizon, so
// that is a broken invariant and index panics.
func (q *eventQueue) index(t int64) int64 {
	if uint64(t-q.cur) >= uint64(q.span) {
		q.outsideRing(t)
	}
	return t & q.mask
}

// outsideRing is index's panic, kept out of line so that index inlines
// into the pushes.
//
//go:noinline
func (q *eventQueue) outsideRing(t int64) {
	panic(fmt.Sprintf("sim: event at t=%d outside the queue ring [%d, %d)", t, q.cur, q.cur+q.span))
}

// mark sets bucket bi's bit and counts the event just pushed into it.
func (q *eventQueue) mark(bi int64) {
	q.bits[bi>>6] |= 1 << uint(bi&63)
	q.count++
}

// drained resets the bucket at time t, whose events have all been
// processed, and clears its bit.
func (q *eventQueue) drained(t int64) {
	bi := t & q.mask
	q.buckets[bi].reset()
	q.bits[bi>>6] &^= 1 << uint(bi&63)
}

// A fresh engine on a small topology — every sim.Run of a test, the first
// seed of a sweep cell — would pay a handful of tiny allocations for each
// of its ring's 2*span arrays as they double. Arrays below carveMax entries
// are instead cut, at twice their capacity, from shared blocks: the
// outgrown half is wasted (under 2*carveMax entries, 32 KiB, per array),
// which is why larger ones grow by append and leave that to the collector.
const (
	carveMax   = 2048
	carveBlock = 2 * carveMax
)

// carve returns s moved into a region of twice its capacity cut from
// *block, starting a new block when the current one is too short.
func carve[T any](block *[]T, s []T) []T {
	c := max(2*cap(s), 16)
	if len(*block) < c {
		*block = make([]T, carveBlock)
	}
	grown := append((*block)[:0:c], s...)
	*block = (*block)[c:]
	return grown
}

// nextBucketTime returns the absolute time of the earliest nonempty
// bucket at or after cur — a circular bitmap scan from the cursor's
// bucket, one word compare per 64 buckets. Must only be called on a
// nonempty queue whose bucket at cur, if drained, has been reset.
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
	panic("sim: next bucket of an empty event queue")
}
