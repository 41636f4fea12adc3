package twophase

import (
	"math/rand"
	"testing"

	"github.com/absmac/absmac/internal/amac"
)

// TestIDSetMatchesMap drives the set directly against map references with
// uniformly random int64 ids, which land in distinct blocks whose home
// slots collide: probe chains form in find, add and every grow, which the
// harness's dense ids (consecutive blocks, spread evenly by the hash)
// rarely produce. Each iteration starts from the previous one's set
// emptied by reuse, as a re-armed node's does.
func TestIDSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1D5E7))
	var s idSet
	for iter := 0; iter < 50; iter++ {
		s = s.reuse()
		member := make(map[amac.NodeID]bool)
		phase2 := make(map[amac.NodeID]bool)
		universe := make([]amac.NodeID, 1+rng.Intn(300))
		for i := range universe {
			universe[i] = amac.NodeID(rng.Uint64())
			if rng.Intn(4) == 0 && i > 0 { // a neighbour in an existing block
				universe[i] = universe[rng.Intn(i)] ^ amac.NodeID(rng.Intn(64))
			}
		}
		for step := 0; step < 4*len(universe); step++ {
			id := universe[rng.Intn(len(universe))]
			switch rng.Intn(3) {
			case 0:
				s.add(id)
				member[id] = true
			case 1:
				if got := s.markPhase2(s.add(id)); got == phase2[id] {
					t.Fatalf("iter %d: markPhase2(%d) = %v with the flag already %v", iter, id, got, phase2[id])
				}
				member[id], phase2[id] = true, true
			default:
				if r, ok := s.find(id); ok != member[id] {
					t.Fatalf("iter %d: find(%d) = %v, want %v", iter, id, ok, member[id])
				} else if ok && s.markPhase2(r) == phase2[id] {
					t.Fatalf("iter %d: markPhase2(find(%d)) disagrees with flag %v", iter, id, phase2[id])
				} else if ok {
					phase2[id] = true
				}
			}
		}
		for _, id := range universe {
			if _, ok := s.find(id); ok != member[id] {
				t.Fatalf("iter %d: after the stream find(%d) = %v, want %v", iter, id, ok, member[id])
			}
		}
		if got, want := s.withoutPhase2(), len(member)-len(phase2); got != want {
			t.Fatalf("iter %d: withoutPhase2 = %d, want %d", iter, got, want)
		}
	}
}

// TestIDSetReuseKeepsQuarterFullTables: a re-armed node keeps its id table
// only when the last run left it at least a quarter full, which is as full
// as doubling past half full leaves a fresh one; a kept table is empty.
func TestIDSetReuseKeepsQuarterFullTables(t *testing.T) {
	var s idSet
	for blk := 0; blk < 5; blk++ { // 5 blocks: grown to 16 slots
		s.add(amac.NodeID(blk << 6))
	}
	kept := s.reuse()
	if len(kept.slots) != 16 || &kept.slots[0] != &s.slots[0] {
		t.Fatalf("5 blocks in %d slots: table not kept", len(s.slots))
	}
	if _, ok := kept.find(0); ok || kept.n != 0 || kept.withoutPhase2() != 0 {
		t.Fatal("kept table is not empty")
	}
	s = idSet{}
	for blk := 0; blk < 9; blk++ { // 32 slots
		s.add(amac.NodeID(blk << 6))
	}
	s.n = 7 // as if the run had left 7 of them: under a quarter
	if got := s.reuse(); got.slots != nil {
		t.Fatalf("table %d of %d slots full was kept", s.n, len(s.slots))
	}
}
