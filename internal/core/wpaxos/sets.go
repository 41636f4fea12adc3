package wpaxos

import (
	"slices"

	"github.com/absmac/absmac/internal/amac"
)

// The sets a node consults on every delivery are sorted slices, not Go maps:
// a map lookup is a chain of dependent loads (header, directory, control
// word, slot), each a cache miss at large n, where a binary search over a few
// dozen contiguous entries touches a line or two. The searches (here,
// findSeen, findState) are written out for the reason findState gives.

// idSet is a set of node ids, sorted ascending. The zero value is the empty
// set; s = s[:0] empties it and keeps the backing array.
type idSet []amac.NodeID

// find returns id's position, or the position it would be inserted at.
func (s idSet) find(id amac.NodeID) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); s[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo] == id
}

func (s idSet) has(id amac.NodeID) bool {
	_, found := s.find(id)
	return found
}

// add inserts id, reporting whether it was new.
func (s *idSet) add(id amac.NodeID) bool {
	i, found := s.find(id)
	if !found {
		*s = slices.Insert(*s, i, id)
	}
	return !found
}
