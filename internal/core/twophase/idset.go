package twophase

import (
	"math/bits"

	"github.com/absmac/absmac/internal/amac"
)

// idSet is an open-addressed set of node ids with one flag per member: has
// its phase-2 message arrived. A delivery costs one linear probe into keys
// (ids are arbitrary int64s — sim.Config.IDs — so occupancy is a bitset
// beside the keys, not a reserved key value) and at most one bit write.
// The table doubles when it would pass half full, so a node that hears n
// ids keeps at most 4n slots: 8 B of key and two flag bits each.
type idSet struct {
	keys   []amac.NodeID
	used   []uint64 // slot holds a member
	phase2 []uint64 // that member's phase-2 message has arrived
	n      int      // members
	shift  uint     // 64 - log2(len(keys)): hash -> slot
}

// minIDSetSlots is the first allocation (a power of two, like every later
// size): 128 B of keys, so a node of a small sweep cell stays small.
const minIDSetSlots = 16

// find returns the slot holding id, or the empty slot where the probe for
// it ended (no slot at all before the first allocation).
func (s *idSet) find(id amac.NodeID) (slot int, ok bool) {
	if s.keys == nil {
		return 0, false
	}
	mask := len(s.keys) - 1
	// Fibonacci hashing: dense ids (the harness default, 1..n) spread
	// evenly, and ids that share low bits do not pile onto one slot.
	i := int(uint64(id) * 0x9E3779B97F4A7C15 >> s.shift)
	for hasBit(s.used, i) {
		if s.keys[i] == id {
			return i, true
		}
		i = (i + 1) & mask
	}
	return i, false
}

// add inserts id if absent and returns its slot.
func (s *idSet) add(id amac.NodeID) int {
	i, ok := s.find(id)
	if ok {
		return i
	}
	if 2*(s.n+1) > len(s.keys) {
		s.grow()
		i, _ = s.find(id)
	}
	s.keys[i] = id
	s.used[i>>6] |= 1 << uint(i&63)
	s.n++
	return i
}

// grow doubles the table (or makes the first one) and reinserts every
// member with its flag.
func (s *idSet) grow() {
	old := *s
	slots := 2 * len(old.keys)
	if slots == 0 {
		slots = minIDSetSlots
	}
	*s = idSet{
		keys:   make([]amac.NodeID, slots),
		used:   make([]uint64, (slots+63)/64),
		phase2: make([]uint64, (slots+63)/64),
		shift:  uint(64 - bits.TrailingZeros(uint(slots))),
	}
	for i, id := range old.keys {
		if !hasBit(old.used, i) {
			continue
		}
		j := s.add(id)
		if hasBit(old.phase2, i) {
			s.markPhase2(j)
		}
	}
}

// markPhase2 flags the member in slot and reports whether the flag is new.
func (s *idSet) markPhase2(slot int) bool {
	if hasBit(s.phase2, slot) {
		return false
	}
	s.phase2[slot>>6] |= 1 << uint(slot&63)
	return true
}

func hasBit(words []uint64, i int) bool { return words[i>>6]&(1<<uint(i&63)) != 0 }

// withoutPhase2 counts the members whose phase-2 message has not arrived.
func (s *idSet) withoutPhase2() int {
	c := 0
	for i, w := range s.used {
		c += bits.OnesCount64(w &^ s.phase2[i])
	}
	return c
}
