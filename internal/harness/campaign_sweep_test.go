package harness

import (
	"testing"

	"github.com/absmac/absmac/internal/sim"
)

// This file tests the sweep features the campaign layer is built on:
// flagged runs, schedule-coverage fingerprints and coverage
// saturation (SweepOptions), plus the identity between the streaming
// fingerprinter and the fingerprint of a recorded schedule.

// TestFingerprintMatchesRecording pins the two routes to the coverage
// digest against each other: a live sim.Fingerprinter watching an
// execution must produce exactly Schedule.Fingerprint() of that
// execution's recording — including crash times and unreliable-edge coin
// outcomes.
func TestFingerprintMatchesRecording(t *testing.T) {
	for _, sc := range []Scenario{
		{Algo: "floodpaxos", Topo: Topo{Kind: "ring", N: 7}, Sched: "random", Fack: 4, Seed: 3},
		{Algo: "floodpaxos", Topo: Topo{Kind: "grid", Rows: 3, Cols: 3}, Sched: "random", Fack: 4, Seed: 5,
			Crashes: "one@0", Overlay: "extra:4@0.6"},
		{Algo: "twophase", Topo: Topo{Kind: "clique", N: 6}, Sched: "sync", Fack: 3, Seed: 1},
	} {
		_, sched, err := sc.RunRecorded()
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := sc.Config()
		if err != nil {
			t.Fatal(err)
		}
		fp := sim.NewFingerprinter(cfg.Scheduler, cfg.Crashes)
		cfg.Scheduler = fp
		sim.Run(cfg)
		if got, want := fp.Sum(), sched.Fingerprint(); got != want {
			t.Errorf("%s on %s: live fingerprint %x != recorded schedule fingerprint %x", sc.Algo, sc.Topo, got, want)
		}
	}
}

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
		cells, err := SweepCellsOpts(work, SweepOptions{Workers: workers, Fingerprint: true})
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
			if f.Fingerprint == 0 {
				t.Fatalf("fingerprinting on, but flagged run has zero fingerprint")
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
			if a.Run != b.Run || a.Fingerprint != b.Fingerprint ||
				a.Violation.Kind != b.Violation.Kind || a.Scenario.Seed != b.Scenario.Seed {
				t.Fatalf("workers=%d: flagged run %d differs: %+v vs %+v", workers, i, a, b)
			}
		}
	}
}

// TestSweepCoverageAndSaturation: a deterministic cell (sync scheduler, no
// randomness anywhere) collapses to one distinct schedule, so with
// SaturateAfter=2 the cell must stop after 3 runs; a random cell keeps
// producing fresh fingerprints and runs its full seed axis.
func TestSweepCoverageAndSaturation(t *testing.T) {
	grid := Grid{
		Algos:  []string{"floodpaxos"},
		Topos:  []Topo{{Kind: "ring", N: 5}},
		Scheds: []string{"sync", "random"},
		Facks:  []int64{3},
		Seeds:  []int64{1, 2, 3, 4, 5, 6, 7, 8},
	}
	work, err := grid.Cells()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := SweepCellsOpts(work, SweepOptions{SaturateAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	sync, random := cells[0], cells[1]
	if sync.DistinctSchedules != 1 {
		t.Fatalf("sync cell exercised %d distinct schedules, want 1", sync.DistinctSchedules)
	}
	if sync.Runs != 3 { // 1 fresh + 2 stale = stop
		t.Fatalf("sync cell ran %d seeds, want saturation stop after 3", sync.Runs)
	}
	if random.Runs != 8 || random.DistinctSchedules != 8 {
		t.Fatalf("random cell ran %d seeds with %d distinct schedules, want 8/8", random.Runs, random.DistinctSchedules)
	}

	// A seed-sensitive algorithm (benor draws its own coins from the
	// seed) must never saturate on schedule-skeleton collisions: the
	// fingerprint is salted with the seed exactly when the execution
	// depends on it beyond the scheduler, so every seed counts as a
	// distinct execution and the full axis runs.
	bwork, err := Grid{
		Algos:  []string{"benor"},
		Topos:  []Topo{{Kind: "clique", N: 4}},
		Scheds: []string{"sync"},
		Facks:  []int64{4},
		Seeds:  grid.Seeds,
	}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	bcells, err := SweepCellsOpts(bwork, SweepOptions{SaturateAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bcells[0].Runs != 8 || bcells[0].DistinctSchedules != 8 {
		t.Fatalf("benor cell ran %d seeds with %d distinct fingerprints, want 8/8 (seed salt missing?)",
			bcells[0].Runs, bcells[0].DistinctSchedules)
	}

	// Without fingerprinting the coverage field stays zero (and the JSON
	// omits it — the golden sweep output pins that byte-for-byte).
	plain, err := SweepCellsOpts(work, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i].DistinctSchedules != 0 {
			t.Fatalf("fingerprinting off but cell %d reports coverage %d", i, plain[i].DistinctSchedules)
		}
	}
}
