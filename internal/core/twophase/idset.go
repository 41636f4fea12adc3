package twophase

import (
	"math/bits"

	"github.com/absmac/absmac/internal/amac"
)

// idSet is an open-addressed set of node ids with one flag per member: has
// its phase-2 message arrived. It is keyed by 64-id block (id >> 6): a slot
// is one block record whose member word holds a bit per id of the block
// and whose phase2 word holds the same bit once that member's phase-2
// message has arrived. A slot is empty iff its member word is zero, so ids
// stay arbitrary int64s (sim.Config.IDs) with no reserved key value, and a
// delivery costs one linear probe over 24 B records and at most one bit
// write. The table doubles when it would pass half full. Dense ids (the
// harness's 1..n) share blocks, so a node that hears them keeps about n/16
// slots; sparse ids cost up to one block, 48 B of table, each.
type idSet struct {
	slots []block
	n     int  // occupied slots
	shift uint // 64 - log2(len(slots)): hash -> slot
}

// block is one slot: the members among ids blk<<6 .. blk<<6+63.
type block struct {
	blk            int64
	member, phase2 uint64
}

// idRef names one member (or, from a failed find, one absent id): its slot
// and its bit in that slot's words.
type idRef struct {
	slot int
	bit  uint64
}

// minIDSetSlots is the first allocation (a power of two, like every later
// size): 96 B, room for the one or two blocks a small sweep cell's ids
// span.
const minIDSetSlots = 4

// find returns the reference of id and whether it is a member. For an
// absent id the slot is its block's, or the empty slot where the probe for
// the block ended (no slot at all before the first allocation).
func (s *idSet) find(id amac.NodeID) (r idRef, ok bool) {
	r.bit = 1 << (uint64(id) & 63)
	if s.slots == nil {
		return r, false
	}
	blk := int64(id) >> 6
	mask := len(s.slots) - 1
	i := s.home(blk)
	for {
		b := &s.slots[i]
		if b.member == 0 {
			r.slot = i
			return r, false
		}
		if b.blk == blk {
			r.slot = i
			return r, b.member&r.bit != 0
		}
		i = (i + 1) & mask
	}
}

// home is the slot where the probe for blk starts. Fibonacci hashing:
// consecutive blocks spread evenly, and blocks that share low bits do not
// pile onto one slot.
func (s *idSet) home(blk int64) int {
	return int(uint64(blk) * 0x9E3779B97F4A7C15 >> s.shift)
}

// add inserts id if absent and returns its reference.
func (s *idSet) add(id amac.NodeID) idRef {
	r, ok := s.find(id)
	if ok {
		return r
	}
	if s.slots == nil || s.slots[r.slot].member == 0 {
		if 2*(s.n+1) > len(s.slots) {
			s.grow()
			r, _ = s.find(id)
		}
		s.slots[r.slot].blk = int64(id) >> 6
		s.n++
	}
	s.slots[r.slot].member |= r.bit
	return r
}

// reuse returns s emptied for a re-armed node. It keeps the table only
// when the last run left it at least a quarter full — as full as doubling
// past half full leaves a fresh one — so the storage follows the last run
// instead of ratcheting up to the largest.
func (s *idSet) reuse() idSet {
	if 4*s.n < len(s.slots) {
		return idSet{}
	}
	clear(s.slots)
	return idSet{slots: s.slots, shift: s.shift}
}

// grow doubles the table (or makes the first one) and reinserts every
// block record whole.
func (s *idSet) grow() {
	old := s.slots
	size := 2 * len(old)
	if size == 0 {
		size = minIDSetSlots
	}
	s.slots = make([]block, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, b := range old {
		if b.member == 0 {
			continue
		}
		i := s.home(b.blk)
		for s.slots[i].member != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = b
	}
}

// markPhase2 flags the member r names and reports whether the flag is new.
func (s *idSet) markPhase2(r idRef) bool {
	b := &s.slots[r.slot]
	if b.phase2&r.bit != 0 {
		return false
	}
	b.phase2 |= r.bit
	return true
}

// withoutPhase2 counts the members whose phase-2 message has not arrived.
func (s *idSet) withoutPhase2() int {
	c := 0
	for _, b := range s.slots {
		c += bits.OnesCount64(b.member &^ b.phase2)
	}
	return c
}
