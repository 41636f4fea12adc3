package wpaxos

import (
	"math/bits"

	"github.com/absmac/absmac/internal/amac"
)

// idTable is a compact hash table keyed by node id, for per-node state
// that grows with the ids a node has heard of (see doc.go, "wPAXOS
// per-node state and the n² budget"). Entries live in one append-only
// slice, in insertion order; idx is an open-addressed index over it
// (multiplicative hash, linear probing, load at most 1/2) whose slots hold
// entry positions, so growth re-threads 4-byte slots and never moves or
// reorders an entry. Keys are arbitrary ids — nothing assumes 0..n-1.
//
// Pointers returned by find and insert point into the entry slice and are
// invalid after the next insert. The zero value is an empty table.
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
