package harness

import (
	"reflect"
	"testing"
)

// This file tests what the campaign layer takes from the sweep and the
// recorder: flagged runs in seed order, and schedule fingerprints that
// tell seeds apart (the explorer's dedup key).

// TestFingerprintDistinguishesSeeds: different seeds of a randomized cell
// must fingerprint differently, and re-running a seed must reproduce its
// fingerprint (the digest is a pure function of the execution).
func TestFingerprintDistinguishesSeeds(t *testing.T) {
	base := Scenario{Algo: "floodpaxos", Topo: Topo{Kind: "ring", N: 7}, Sched: "random", Fack: 4}
	seen := map[uint64]int64{}
	for seed := int64(1); seed <= 4; seed++ {
		sc := base
		sc.Seed = seed
		_, s1, err := sc.RunRecorded()
		if err != nil {
			t.Fatal(err)
		}
		_, s2, err := sc.RunRecorded()
		if err != nil {
			t.Fatal(err)
		}
		if s1.Fingerprint() != s2.Fingerprint() {
			t.Fatalf("seed %d fingerprints unstable", seed)
		}
		if prev, dup := seen[s1.Fingerprint()]; dup {
			t.Fatalf("seeds %d and %d share a fingerprint", prev, seed)
		}
		seen[s1.Fingerprint()] = seed
	}
}

// stallGrid is a two-cell grid: the two-phase coordinator stall cell
// (violating — a dead coordinator strands every witness, the paper's
// Theorem 3.2 counterexample) next to the wPAXOS contrast cell (healthy
// for all seeds since the Ω failure-detector redesign).
func stallGrid(seeds int) Grid {
	g := Grid{
		Algos:     []string{"twophase", "wpaxos"},
		Topos:     []Topo{{Kind: "ring", N: 9}},
		Scheds:    []string{"random"},
		Facks:     []int64{4},
		Crashes:   []string{"coordinator"},
		Overlays:  []string{"chords"},
		MaxEvents: 200_000,
	}
	for s := int64(1); s <= int64(seeds); s++ {
		g.Seeds = append(g.Seeds, s)
	}
	return g
}

// TestSweepReturnsFlaggedRuns: every violating run must appear in its
// cell's Flagged list exactly once, in seed order, with a classification
// consistent with the cell aggregates, identically at every pool width.
func TestSweepReturnsFlaggedRuns(t *testing.T) {
	work, err := stallGrid(8).Cells()
	if err != nil {
		t.Fatal(err)
	}
	var ref []FlaggedRun
	for _, workers := range []int{1, 2, 8} {
		cells, err := SweepCellsOpts(work, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range cells {
			if len(cells[i].Flagged) != cells[i].Runs-cells[i].Correct {
				t.Fatalf("cell %d: %d flagged runs, %d incorrect runs", i, len(cells[i].Flagged), cells[i].Runs-cells[i].Correct)
			}
			if i != 0 && len(cells[i].Flagged) > 0 {
				t.Fatalf("flagged run in cell %d; only cell 0 (twophase) may violate", i)
			}
		}
		flagged := cells[0].Flagged
		if len(flagged) == 0 {
			t.Fatal("the two-phase coordinator stall cell produced no flagged runs")
		}
		for i, f := range flagged {
			if i > 0 && f.Run <= flagged[i-1].Run {
				t.Fatalf("flagged runs out of seed order: run %d after run %d", f.Run, flagged[i-1].Run)
			}
			if f.Violation == nil || f.Violation.Kind == "" {
				t.Fatalf("flagged run carries no violation: %+v", f)
			}
			if f.Scenario.Algo != "twophase" || f.Scenario.Seed != work[0].Seeds[f.Run] {
				t.Fatalf("flagged scenario not filled in: %+v", f.Scenario)
			}
		}
		if ref == nil {
			ref = flagged
			continue
		}
		if len(ref) != len(flagged) {
			t.Fatalf("workers=%d: %d flagged runs, want %d", workers, len(flagged), len(ref))
		}
		for i := range ref {
			a, b := ref[i], flagged[i]
			if a.Run != b.Run || a.Scenario != b.Scenario || !reflect.DeepEqual(a.Violation, b.Violation) {
				t.Fatalf("workers=%d: flagged run %d differs: %+v vs %+v", workers, i, a, b)
			}
		}
	}
}
