package amac

import (
	"strings"
	"testing"
)

// idMsg is a test message reporting a fixed id count.
type idMsg int

func (m idMsg) IDCount() int { return int(m) }

func TestNoIDSemantics(t *testing.T) {
	// NoID must be distinguishable from every id the harnesses assign
	// (substrates default to index+1, so all real ids are positive).
	if NoID >= 0 {
		t.Fatalf("NoID = %d; must be negative so it never collides with assigned ids", NoID)
	}
	for _, id := range []NodeID{1, 2, 1000} {
		if id == NoID {
			t.Fatalf("assigned id %d equals NoID", id)
		}
	}
	// NodeIDs are comparable values: equal iff numerically equal.
	if NodeID(7) != NodeID(7) || NodeID(7) == NodeID(8) {
		t.Fatal("NodeID comparison misbehaves")
	}
}

func TestAuditIDCount(t *testing.T) {
	for c := 0; c <= MaxMessageIDs; c++ {
		if err := AuditIDCount(idMsg(c)); err != nil {
			t.Fatalf("IDCount=%d within bound %d, got error %v", c, MaxMessageIDs, err)
		}
	}
	err := AuditIDCount(idMsg(MaxMessageIDs + 1))
	if err == nil {
		t.Fatalf("IDCount=%d exceeds bound %d, want error", MaxMessageIDs+1, MaxMessageIDs)
	}
	if !strings.Contains(err.Error(), "exceeding the model bound") {
		t.Fatalf("audit error %q does not name the model bound", err)
	}
}

// TestReuseKeepsHalfFullTables: a table the last run left half full or
// full keeps its backing array, emptied and zeroed to its full capacity,
// while that holds at most max elements, so a re-armed node's storage does
// not ratchet with the fill of its last run.
func TestReuseKeepsHalfFullTables(t *testing.T) {
	for _, left := range []int{3, 6} {
		table := make([]*int, 6)
		for i := range table {
			table[i] = new(int)
		}
		got := ReuseUpTo(table[:left], 6)
		if len(got) != 0 || cap(got) != 6 || &got[:1][0] != &table[0] {
			t.Fatalf("table left with %d of 6: len %d cap %d, want the same array emptied", left, len(got), cap(got))
		}
		for i, p := range table {
			if p != nil {
				t.Errorf("table left with %d of 6: kept table still references element %d of the last run", left, i)
			}
		}
	}
}

// TestReuseUpToKeepsEmptiedTables: a table a run emptied, or left nearly
// empty, keeps its backing array, zeroed to its full capacity, while that
// holds at most max elements; a larger one is dropped.
func TestReuseUpToKeepsEmptiedTables(t *testing.T) {
	for _, left := range []int{0, 1} {
		table := make([]*int, 4)
		for i := range table {
			table[i] = new(int)
		}
		got := ReuseUpTo(table[:left], 4)
		if len(got) != 0 || cap(got) != 4 || &got[:1][0] != &table[0] {
			t.Fatalf("table left with %d of 4: len %d cap %d, want the same array emptied", left, len(got), cap(got))
		}
		for i, p := range table {
			if p != nil {
				t.Errorf("table left with %d of 4: kept table still references element %d of the last run", left, i)
			}
		}
	}
	if got := ReuseUpTo(make([]int, 1, 5), 4); got != nil {
		t.Fatalf("table over the bound kept: len %d cap %d", len(got), cap(got))
	}
	if got := ReuseUpTo([]int(nil), 4); got != nil {
		t.Fatalf("nil table came back as len %d cap %d", len(got), cap(got))
	}
}

// TestReuseSizedKeepsFittingTables: a table sized from the configuration
// keeps its backing array, zeroed, while that holds n elements and no more
// than 2n; otherwise it is made anew.
func TestReuseSizedKeepsFittingTables(t *testing.T) {
	old := []uint64{1, 2, 3, 4}
	got := ReuseSized(old, 3)
	if len(got) != 3 || &got[0] != &old[0] || got[0]|got[1]|got[2] != 0 {
		t.Fatalf("fitting table: %v (len %d), want the same array, 3 zeros", got, len(got))
	}
	if got := ReuseSized(old, 5); len(got) != 5 || &got[0] == &old[0] {
		t.Fatal("a table too small for n was kept")
	}
	if got := ReuseSized(old, 1); len(got) != 1 || &got[0] == &old[0] {
		t.Fatal("a table over twice n was kept")
	}
}
