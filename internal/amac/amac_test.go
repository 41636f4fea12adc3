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
