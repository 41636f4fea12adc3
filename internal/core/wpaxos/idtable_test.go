package wpaxos

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/absmac/absmac/internal/amac"
)

// checkIDTable inserts keys (duplicates skipped) into an idTable and a map
// side by side, writing through the returned pointers, and after every
// insert batch verifies lookups of present and absent keys, that values
// written earlier survived the growth in between, and that entries stay in
// insertion order; then it does the same across a retain. It returns a
// description of the first mismatch.
func checkIDTable(keys []amac.NodeID, absent []amac.NodeID) string {
	var tbl idTable[[2]int64]
	ref := map[amac.NodeID][2]int64{}
	var order []amac.NodeID
	if tbl.find(0) != nil {
		return "empty table finds 0"
	}
	verify := func() string {
		for i, id := range order {
			v := tbl.find(id)
			if v == nil || *v != ref[id] {
				return "lost or corrupted a key"
			}
			if tbl.ents[i].id != id {
				return "entries out of insertion order"
			}
		}
		for _, id := range absent {
			if _, ok := ref[id]; !ok && tbl.find(id) != nil {
				return "found an absent key"
			}
		}
		if len(tbl.ents) != len(ref) || 2*len(tbl.ents) > len(tbl.idx) {
			return "size or load bound broken"
		}
		return ""
	}
	for i, id := range keys {
		if _, dup := ref[id]; dup {
			if tbl.find(id) == nil {
				return "duplicate key not found"
			}
			continue
		}
		v := tbl.insert(id)
		if *v != ([2]int64{}) {
			return "insert returned a non-zero value"
		}
		*v = [2]int64{int64(id), int64(i)}
		ref[id] = *v
		order = append(order, id)
		// Verify at every size up to past the second rebuild, then at
		// and around each power of two (where the index is rebuilt).
		if n := len(order); n <= 40 || n&(n-1) == 0 || (n-1)&(n-2) == 0 || i == len(keys)-1 {
			if msg := verify(); msg != "" {
				return msg
			}
		}
	}
	// Overwrite through find and re-verify: pointers reach the live entry.
	for _, id := range order {
		tbl.find(id)[1] = -7
		v := ref[id]
		v[1] = -7
		ref[id] = v
	}
	if msg := verify(); msg != "" {
		return msg
	}
	// retain drops every third key in one pass; the rest keep their
	// order and values, the dropped ones are gone and can come back.
	var kept, dropped []amac.NodeID
	for i, id := range order {
		if i%3 == 1 {
			dropped = append(dropped, id)
			delete(ref, id)
		} else {
			kept = append(kept, id)
		}
	}
	order = kept
	if tbl.retain(func(v *[2]int64) bool { _, ok := ref[amac.NodeID(v[0])]; return ok }) != (len(dropped) > 0) {
		return "retain misreports whether anything left"
	}
	if tbl.retain(func(*[2]int64) bool { return true }) {
		return "a retain that keeps everything reports a removal"
	}
	absent = append(absent, dropped...)
	if msg := verify(); msg != "" {
		return "after retain: " + msg
	}
	for _, id := range dropped {
		*tbl.insert(id) = [2]int64{int64(id), -7}
		ref[id] = [2]int64{int64(id), -7}
		order = append(order, id)
	}
	if msg := verify(); msg != "" {
		return "after re-inserting what retain dropped: " + msg
	}
	return ""
}

func TestIDTableMatchesMap(t *testing.T) {
	special := []amac.NodeID{0, amac.NoID, math.MaxInt64, math.MinInt64, 1, -2, 1 << 32, 1<<63 - 2}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 8, 9, 16, 17, 100, 1000, 5000} {
		dense := make([]amac.NodeID, n)
		sparse := make([]amac.NodeID, n)
		random := make([]amac.NodeID, n)
		for i := range dense {
			dense[i] = amac.NodeID(i + 1)
			sparse[i] = amac.NodeID(1_000_000_000 + 17*i)
			random[i] = amac.NodeID(rng.Uint64())
		}
		rng.Shuffle(n, func(i, j int) { sparse[i], sparse[j] = sparse[j], sparse[i] })
		absent := append([]amac.NodeID{amac.NodeID(n + 1), 999_999_999, amac.NodeID(rng.Uint64())}, special...)
		for _, u := range []idUniverse{
			{"dense", dense},
			{"sparse", sparse},
			{"random", random},
			{"special+dense", append(append([]amac.NodeID{}, special...), dense...)},
			{"dense+special", append(append([]amac.NodeID{}, dense...), special...)},
			{"multiples of 64", scaleIDs(dense, 64)},
			{"multiples of 2^40", scaleIDs(dense, 1<<40)},
		} {
			if msg := checkIDTable(u.ids, absent); msg != "" {
				t.Fatalf("%s, %d keys: %s", u.name, n, msg)
			}
		}
	}
	if err := quick.Check(func(raw []int64) bool {
		keys := make([]amac.NodeID, len(raw))
		for i, k := range raw {
			keys[i] = amac.NodeID(k)
		}
		return checkIDTable(keys, special) == ""
	}, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func scaleIDs(ids []amac.NodeID, by amac.NodeID) []amac.NodeID {
	out := make([]amac.NodeID, len(ids))
	for i, id := range ids {
		out[i] = id * by
	}
	return out
}
