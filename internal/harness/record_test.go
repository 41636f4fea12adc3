package harness

import (
	"encoding/json"
	"testing"

	"github.com/absmac/absmac/internal/sim"
)

// resultJSON snapshots a simulator result for byte-level comparison.
// Results are engine-owned and reused across runs, so comparisons must go
// through a serialized copy taken while the result is live.
func resultJSON(t *testing.T, res *sim.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// cellJSON aggregates a single outcome into a Cell and serializes it —
// the sweep-visible face of a run.
func cellJSON(t *testing.T, o *Outcome) string {
	t.Helper()
	acc := newCellAccum(1)
	acc.add(o)
	c := acc.finish()
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRecordReplayByteIdentity pins the record→replay contract: for every
// registered scheduler — bare, crash-injected, and Lossy-wrapped by an
// overlay — recording a run and replaying its Schedule reproduces the
// identical sim.Result (and the identical aggregated cell JSON), with the
// replay never leaving the recording.
func TestRecordReplayByteIdentity(t *testing.T) {
	type adversity struct{ crashes, overlay string }
	advs := []adversity{
		{"none", "none"},
		{"midbroadcast", "none"},
		{"none", "chords@0.7"},
		{"midbroadcast", "chords"},
		{"minorityrand", "randomextra:0.2@0.6"},
	}
	for _, sched := range Schedulers() {
		// gate silences a hub, which the ring lacks; it runs on K_3.
		spec, topo := sched, Topo{Kind: "ring", N: 9}
		if sched == "gate" {
			spec, topo = "gate@6", Topo{Kind: "kd", Diam: 3}
		}
		for _, adv := range advs {
			// Crashing a minority of a ring can partition the survivors,
			// and floodpaxos retransmits until superseded — a partitioned
			// run only ends at the event cap. Byte-identity doesn't need
			// the default 5M-event cutoff; cap well below it so the
			// partitioned combos stay fast (the cutoff execution is still
			// recorded and replayed like any other).
			sc := Scenario{
				Algo:      "floodpaxos",
				Topo:      topo,
				Sched:     spec,
				Fack:      4,
				Seed:      3,
				Crashes:   adv.crashes,
				Overlay:   adv.overlay,
				MaxEvents: 100_000,
			}
			name := sched + "/" + adv.crashes + "/" + adv.overlay
			t.Run(name, func(t *testing.T) {
				out1, schedule, err := sc.RunRecorded()
				if err != nil {
					t.Fatal(err)
				}
				want := resultJSON(t, out1.Result)
				wantCell := cellJSON(t, out1)
				if len(schedule.Steps) != out1.Result.Broadcasts {
					t.Fatalf("recorded %d steps for %d broadcasts", len(schedule.Steps), out1.Result.Broadcasts)
				}

				// The schedule must survive its own serialization: replay
				// from the decoded copy, not the live one.
				blob, err := json.Marshal(schedule)
				if err != nil {
					t.Fatal(err)
				}
				var decoded sim.Schedule
				if err := json.Unmarshal(blob, &decoded); err != nil {
					t.Fatal(err)
				}
				if decoded.Fingerprint() != schedule.Fingerprint() {
					t.Fatal("schedule hash changed across JSON round-trip")
				}

				runner, err := sc.NewReplayRunner()
				if err != nil {
					t.Fatal(err)
				}
				out2, rp, err := runner.Run(&decoded, nil)
				if err != nil {
					t.Fatal(err)
				}
				if rp.Diverged() {
					t.Fatalf("replay diverged at step %d", rp.DivergedAt())
				}
				if got := resultJSON(t, out2.Result); got != want {
					t.Fatalf("replayed result differs:\n got %s\nwant %s", got, want)
				}
				if got := cellJSON(t, out2); got != wantCell {
					t.Fatalf("replayed cell JSON differs:\n got %s\nwant %s", got, wantCell)
				}
			})
		}
	}
}

// TestRecordReplayIdentityWPaxos covers the multiplexed-service algorithm
// (deeper message zoo than floodpaxos) on a dual-graph cell, including the
// pinned stall configuration itself.
func TestRecordReplayIdentityWPaxos(t *testing.T) {
	for _, seed := range []int64{1, 4} {
		sc := Scenario{
			Algo: "wpaxos", Topo: Topo{Kind: "ring", N: 9},
			Sched: "random", Fack: 4, Seed: seed,
			Crashes: "midbroadcast", Overlay: "chords",
			MaxEvents: 200_000,
		}
		out1, schedule, err := sc.RunRecorded()
		if err != nil {
			t.Fatal(err)
		}
		want := resultJSON(t, out1.Result)
		runner, err := sc.NewReplayRunner()
		if err != nil {
			t.Fatal(err)
		}
		out2, rp, err := runner.Run(schedule, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Diverged() {
			t.Fatalf("seed %d: replay diverged at %d", seed, rp.DivergedAt())
		}
		if got := resultJSON(t, out2.Result); got != want {
			t.Fatalf("seed %d: replayed result differs", seed)
		}
	}
}

// TestRecordedScheduleCarriesCrashes pins that the recording captures the
// configured crash schedule, and that replays install it from the
// Schedule (dropping it changes the run).
func TestRecordedScheduleCarriesCrashes(t *testing.T) {
	sc := Scenario{
		Algo: "floodpaxos", Topo: Topo{Kind: "ring", N: 9},
		Sched: "random", Fack: 4, Seed: 3, Crashes: "midbroadcast",
	}
	out, schedule, err := sc.RunRecorded()
	if err != nil {
		t.Fatal(err)
	}
	if len(schedule.Crashes) != 1 || schedule.Crashes[0].Node != 0 {
		t.Fatalf("recorded crashes = %+v, want node 0's midbroadcast crash", schedule.Crashes)
	}
	if out.Report.Crashed != 1 {
		t.Fatalf("recorded run crashed %d nodes, want 1", out.Report.Crashed)
	}
	mutated := schedule.Clone()
	if !mutated.DropCrash(0) {
		t.Fatal("DropCrash refused")
	}
	runner, err := sc.NewReplayRunner()
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := runner.Run(mutated, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Report.Crashed != 0 {
		t.Fatalf("crash-free replay still crashed %d nodes", out2.Report.Crashed)
	}
}

// TestReplayRunnerReusesEngineSafely replays several perturbed schedules
// back to back on one runner: outcomes must match one-shot replays (the
// engine reuse must not leak state between replays).
func TestReplayRunnerReusesEngineSafely(t *testing.T) {
	sc := Scenario{
		Algo: "floodpaxos", Topo: Topo{Kind: "ring", N: 9},
		Sched: "random", Fack: 4, Seed: 3,
		Crashes: "midbroadcast", Overlay: "chords",
	}
	_, schedule, err := sc.RunRecorded()
	if err != nil {
		t.Fatal(err)
	}
	variants := []*sim.Schedule{schedule.Clone(), schedule.Clone(), schedule.Clone()}
	variants[1].JitterStep(0, 99)
	variants[2].Truncate(len(variants[2].Steps) / 2)

	shared, err := sc.NewReplayRunner()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range variants {
		got, _, err := shared.Run(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON := resultJSON(t, got.Result)
		fresh, err := sc.NewReplayRunner()
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := fresh.Run(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wantJSON := resultJSON(t, want.Result); gotJSON != wantJSON {
			t.Fatalf("variant %d: shared-runner result differs from fresh-runner result", i)
		}
	}
}
