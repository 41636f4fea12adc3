package wpaxos

import (
	"math/bits"

	"github.com/absmac/absmac/internal/amac"
)

// idTable is a compact hash table keyed by node id, for per-node state
// about the ids a node has heard of and still has a use for (see doc.go,
// "wPAXOS per-node state and the n² budget"). Entries live in one slice,
// in insertion order; idx is an open-addressed index over it
// (multiplicative hash, linear probing, load at most 1/2) whose slots hold
// entry positions, so growth re-threads 4-byte slots and never moves or
// reorders an entry; retain, the only removal, compacts the slice in
// order and re-threads. Keys are arbitrary ids — nothing assumes 0..n-1.
//
// Pointers returned by find and insert point into the entry slice and are
// invalid after the next insert or retain. The zero value is an empty
// table.
type idTable[V any] struct {
	ents  []idEntry[V]
	idx   []int32 // entry position + 1; 0 marks an empty slot
	shift uint    // 64 - log2(len(idx))
}

type idEntry[V any] struct {
	id amac.NodeID
	v  V
}

// idTableMinSlots is the index size at the first insert: eight entries
// before the first rebuild.
const idTableMinSlots = 16

func (t *idTable[V]) slot(id amac.NodeID) uint64 {
	return (uint64(id) * 0x9E3779B97F4A7C15) >> t.shift
}

// find returns the value stored under id, or nil.
func (t *idTable[V]) find(id amac.NodeID) *V {
	if len(t.idx) == 0 {
		return nil
	}
	mask := uint64(len(t.idx) - 1)
	for i := t.slot(id); ; i = (i + 1) & mask {
		p := t.idx[i]
		if p == 0 {
			return nil
		}
		if e := &t.ents[p-1]; e.id == id {
			return &e.v
		}
	}
}

// insert adds a zero value under id and returns it. The id must not be
// present: callers insert on a failed find.
func (t *idTable[V]) insert(id amac.NodeID) *V {
	if 2*(len(t.ents)+1) > len(t.idx) {
		t.grow()
	}
	t.ents = append(t.ents, idEntry[V]{id: id})
	t.thread(len(t.ents) - 1)
	return &t.ents[len(t.ents)-1].v
}

// retain drops the entries keep rejects, preserving the order of the
// rest, and reports whether any left. Pointers into the table are invalid
// afterwards.
func (t *idTable[V]) retain(keep func(*V) bool) bool {
	kept := t.ents[:0]
	for i := range t.ents { // in place: keep sees the stored value, nothing is copied out
		if keep(&t.ents[i].v) {
			kept = append(kept, t.ents[i])
		}
	}
	if len(kept) == len(t.ents) {
		return false
	}
	clear(t.ents[len(kept):]) // let go of what the dropped values point to
	t.ents = kept
	clear(t.idx)
	for p := range t.ents {
		t.thread(p)
	}
	return true
}

// thread points the first free slot of entry p's probe sequence at it.
func (t *idTable[V]) thread(p int) {
	mask := uint64(len(t.idx) - 1)
	i := t.slot(t.ents[p].id)
	for t.idx[i] != 0 {
		i = (i + 1) & mask
	}
	t.idx[i] = int32(p + 1)
}

// grow doubles the index and re-threads every entry, in insertion order.
func (t *idTable[V]) grow() {
	slots := 2 * len(t.idx)
	if slots < idTableMinSlots {
		slots = idTableMinSlots
	}
	t.idx = make([]int32, slots)
	t.shift = uint(64 - bits.TrailingZeros(uint(slots)))
	for p := range t.ents {
		t.thread(p)
	}
}
