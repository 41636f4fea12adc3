package omega

import (
	"testing"

	"github.com/absmac/absmac/internal/amac"
)

// clock is what a Service reads of its node's amac.API: the id (4) and
// the time.
type clock struct {
	amac.API
	now int64
}

func (c *clock) ID() amac.NodeID { return 4 }
func (c *clock) Now() int64      { return c.now }

func TestChangeService(t *testing.T) {
	c := &clock{now: 10}
	var s Service
	s.Init(c, 8, nil)
	if _, _, ok := s.Next(); ok {
		t.Fatal("fresh service has a queued notice")
	}
	s.Changed()
	if _, m, ok := s.Next(); !ok || m != (ChangeMsg{T: 10, ID: 4}) {
		t.Fatalf("queued %v after a local change", m)
	}
	// Next is sticky: the newest notice stays queued until superseded.
	if _, m, ok := s.Next(); !ok || m.T != 10 {
		t.Fatalf("sticky notice %v", m)
	}
	c.now = 20
	for _, m := range []ChangeMsg{{T: 9, ID: 1}, {T: 10, ID: 1}} {
		if s.Notice(m) || s.LastNovel() != 0 {
			t.Fatalf("notice %v, not newer than the newest, was taken (novel at %d)", m, s.LastNovel())
		}
	}
	if !s.Notice(ChangeMsg{T: 11, ID: 1}) || s.LastNovel() != 20 {
		t.Fatalf("fresh notice rejected or not novel (novel at %d)", s.LastNovel())
	}
	if _, m, ok := s.Next(); !ok || m != (ChangeMsg{T: 11, ID: 1}) {
		t.Fatalf("queued %v after a fresh notice", m)
	}
}

func TestServiceHear(t *testing.T) {
	c := &clock{now: 5}
	var s Service
	s.Init(c, 8, nil)
	if s.Hear(2) || s.Omega() != 4 || s.LastNovel() != 5 {
		t.Fatalf("a new member below Ω: omega %d, novel at %d", s.Omega(), s.LastNovel())
	}
	c.now = 6
	if !s.Hear(7) || s.Omega() != 7 {
		t.Fatalf("a new maximum did not move Ω: omega %d", s.Omega())
	}
	c.now = 9
	if s.Hear(7) || s.Hear(2) || s.LastNovel() != 6 {
		t.Fatalf("a known member was news (novel at %d)", s.LastNovel())
	}
	if l, _, _ := s.Next(); l.ID != 7 {
		t.Fatalf("first gossip %d, want Ω 7", l.ID)
	}
}
