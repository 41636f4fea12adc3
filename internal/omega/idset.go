package omega

import (
	"slices"

	"github.com/absmac/absmac/internal/amac"
)

// IDSet is a set of node ids, sorted ascending: the detector's suspects and
// the members its bitset cannot hold, floodpaxos' responders with such ids,
// and wPAXOS' origin tallies. It is a slice, not a Go map,
// because a map lookup is a chain of dependent loads (header, directory,
// control word, slot), each a cache miss at large n, where a binary search
// over a few dozen contiguous entries touches a line or two. The zero value
// is the empty set; s = s[:0] empties it and keeps the backing array.
type IDSet []amac.NodeID

// find returns id's position, or the position it would be inserted at.
func (s IDSet) find(id amac.NodeID) (int, bool) {
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

// Has reports whether id is in the set.
func (s IDSet) Has(id amac.NodeID) bool {
	_, found := s.find(id)
	return found
}

// Add inserts id, reporting whether it was new.
func (s *IDSet) Add(id amac.NodeID) bool {
	i, found := s.find(id)
	if !found {
		*s = slices.Insert(*s, i, id)
	}
	return !found
}
