package harness

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/absmac/absmac/internal/sim"
)

// eventLog returns an observer that renders every engine event into lines
// (a Message is engine- or algorithm-owned and may be recycled after the
// callback, so only its type is kept — what trace.Recorder keeps).
func eventLog(lines *[]string) func(sim.Event) {
	return func(ev sim.Event) {
		*lines = append(*lines, fmt.Sprintf("%v t=%d node=%d peer=%d msg=%T val=%d",
			ev.Kind, ev.Time, ev.Node, ev.Peer, ev.Message, ev.Value))
	}
}

// TestExecutionPathsAgree holds every way to execute a scenario to one
// execution: plain, recorded, fingerprinted, recorded and fingerprinted at
// once, replayed, replayed while re-recording, and as a one-seed sweep
// cell. They agree because they are one function (executor.execute) under
// different requests; what this pins is that no request changes what runs
// — the wrappers only watch — and that the wrappers agree with each other
// inside a single execution: the Outcome's fingerprint is
// Schedule.Fingerprint() of the schedule the same call recorded.
func TestExecutionPathsAgree(t *testing.T) {
	scenarios := []Scenario{
		{Algo: "wpaxos", Topo: Topo{Kind: "grid", Rows: 3, Cols: 3}, Sched: "random", Fack: 4, Seed: 2},
		{Algo: "wpaxos", Topo: Topo{Kind: "ring", N: 9}, Sched: "random", Fack: 4, Seed: 4,
			Crashes: "midbroadcast", Overlay: "chords"},
		{Algo: "floodpaxos", Topo: Topo{Kind: "grid", Rows: 3, Cols: 3}, Sched: "random", Fack: 4, Seed: 5,
			Crashes: "one@0", Overlay: "extra:4@0.6"},
		{Algo: "benor", Topo: Topo{Kind: "clique", N: 5}, Sched: "random", Fack: 3, Seed: 11},
		{Algo: "floodpaxos", Topo: Topo{Kind: "star", N: 6}, Sched: "edgeorder", Fack: 4, Seed: 1},
	}
	for _, sc := range scenarios {
		sc.MaxEvents = 200_000
		t.Run(sc.Algo+"/"+sc.Topo.String()+"/"+sc.Sched, func(t *testing.T) {
			fresh := func(req Exec) (*Outcome, *sim.Schedule) {
				t.Helper()
				out, _, sched, err := (&executor{caches: newCaches()}).run(sc, req)
				if err != nil {
					t.Fatal(err)
				}
				return out, sched
			}
			plain, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if plain.Violation() != nil {
				t.Fatalf("scenario is not healthy: %v", plain.Report.Errors)
			}
			want := plain.Result
			same := func(path string, got *Outcome) {
				t.Helper()
				// Every field: decisions, decide times, the four counters,
				// events, the crash vector.
				if !reflect.DeepEqual(got.Result, want) {
					t.Errorf("%s: result differs from a plain run:\n got %+v\nwant %+v", path, got.Result, want)
				}
				if got.N != plain.N || got.Diameter != plain.Diameter || got.Fack != plain.Fack {
					t.Errorf("%s: shape (n=%d D=%d Fack=%d), plain run (n=%d D=%d Fack=%d)", path,
						got.N, got.Diameter, got.Fack, plain.N, plain.Diameter, plain.Fack)
				}
			}

			recorded, schedule, err := sc.RunRecorded()
			if err != nil {
				t.Fatal(err)
			}
			same("recorded", recorded)
			if len(schedule.Steps) != want.Broadcasts {
				t.Fatalf("recorded %d steps for %d broadcasts", len(schedule.Steps), want.Broadcasts)
			}

			// The digest of a run is Schedule.Fingerprint() of its
			// recording, salted exactly when the seed reaches the execution
			// past the scheduler (benor here).
			digest := func(s *sim.Schedule) uint64 {
				fp := s.Fingerprint()
				if salt := sc.fingerprintSalt(); salt != 0 {
					fp = sim.SaltFingerprint(fp, salt)
				}
				return fp
			}
			fingerprinted, _ := fresh(Exec{Fingerprint: true})
			same("fingerprinted", fingerprinted)
			if fingerprinted.Fingerprint != digest(schedule) {
				t.Errorf("fingerprinted run digests to %x, the recording of the same scenario to %x",
					fingerprinted.Fingerprint, digest(schedule))
			}

			// Both wrappers around one execution, with an observer.
			var freshEvents []string
			both, bothSched := fresh(Exec{Record: true, Fingerprint: true, Observer: eventLog(&freshEvents)})
			same("recorded+fingerprinted", both)
			if !reflect.DeepEqual(bothSched, schedule) {
				t.Error("recording under a fingerprinter differs from a plain recording")
			}
			if both.Fingerprint != digest(bothSched) || both.Fingerprint == 0 {
				t.Errorf("Outcome.Fingerprint %x != Schedule.Fingerprint() of the same run %x",
					both.Fingerprint, digest(bothSched))
			}

			runner, err := sc.NewReplayRunner()
			if err != nil {
				t.Fatal(err)
			}
			var replayEvents []string
			replayed, rp, err := runner.Run(schedule, eventLog(&replayEvents))
			if err != nil {
				t.Fatal(err)
			}
			same("replayed", replayed)
			if rp.Diverged() {
				t.Errorf("replay diverged at step %d", rp.DivergedAt())
			}
			if !reflect.DeepEqual(replayEvents, freshEvents) {
				t.Errorf("observer saw %d events on the replay, %d on the fresh run, or different ones",
					len(replayEvents), len(freshEvents))
			}

			// Same runner, so the engine is a reused one here.
			rerecorded, rp, closed, err := runner.RunRecorded(schedule, nil)
			if err != nil {
				t.Fatal(err)
			}
			same("re-recorded replay", rerecorded)
			if rp.Diverged() {
				t.Errorf("re-recording replay diverged at step %d", rp.DivergedAt())
			}
			if !reflect.DeepEqual(closed, schedule) {
				t.Error("re-recording a clean replay did not reproduce the schedule")
			}

			// The sweep worker's path: a shared executor whose engine an
			// earlier run (another seed) has already used.
			warm := &executor{caches: newCaches()}
			other := sc
			other.Seed++
			if _, _, _, err := warm.run(other, Exec{}); err != nil {
				t.Fatal(err)
			}
			swept, _, _, err := warm.run(sc, Exec{Fingerprint: true})
			if err != nil {
				t.Fatal(err)
			}
			same("sweep worker on a reused engine", swept)
			if swept.Fingerprint != fingerprinted.Fingerprint {
				t.Errorf("reused-engine fingerprint %x, fresh %x", swept.Fingerprint, fingerprinted.Fingerprint)
			}

			// The sweep entry point exposes no Result, so its cell is held
			// to the same run aggregated by hand.
			cells, err := SweepCellsOpts([]CellWork{{Base: sc, Seeds: []int64{sc.Seed}}},
				SweepOptions{Workers: 1, Fingerprint: true})
			if err != nil {
				t.Fatal(err)
			}
			acc := newCellAccum(1)
			acc.add(fingerprinted, true)
			if wantCell := acc.finish(); !reflect.DeepEqual(cells[0], wantCell) {
				t.Errorf("one-seed sweep cell differs from the run aggregated by hand:\n got %+v\nwant %+v", cells[0], wantCell)
			}
		})
	}
}
