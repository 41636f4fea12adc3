package harness_test

// This file is in the external test package: it exercises the committed
// artifacts through internal/explore, which itself builds on harness — an
// in-package test would be an import cycle.

import (
	"encoding/json"
	"testing"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/explore"
)

// The golden_*.json artifacts record the two cells that stalled before the
// Ω failure-detector redesign (wPAXOS under the Theorem 3.2 mid-broadcast
// crash with the chords overlay; floodpaxos behind a dead max-id leader)
// terminating under the current algorithms; they must keep replaying
// byte-identically.
//
// An artifact is what the tree produces for its embedded scenario, so a
// change to an algorithm's executions re-records it (and the pins of
// critpath's TestGoldenCriticalPaths, which replays the same two files):
//
//	go run ./cmd/amacsim -algo wpaxos -topo ring:9 -sched random -fack 4 -seed 4 \
//	    -crash midbroadcast -overlay chords -maxevents 200000 -record testdata/golden_wpaxos_midbroadcast_chords.json
//	go run ./cmd/amacsim -algo floodpaxos -topo grid:3x3 -sched random -fack 4 -seed 1 \
//	    -crash one@3 -overlay extra:4@0.6 -record testdata/golden_floodpaxos_one3_extra.json
//
// -record writes the cap as "max_events"; only the free-text note
// differs from the committed header. The test below re-records both and
// compares the schedules, so a stale artifact fails by name rather than
// as a replay divergence.
const (
	goldenWPaxos = "testdata/golden_wpaxos_midbroadcast_chords.json"
	goldenFlood  = "testdata/golden_floodpaxos_one3_extra.json"
)

// TestTerminatingGoldensReplayByteIdentically is the golden replay test
// for the re-recorded cells: zero divergence, no violation (the artifacts
// record healthy terminating runs), and deterministic — two replays yield
// byte-identical results. Each artifact must also be what recording its
// own scenario under its own cap produces today. If this test starts failing after an engine,
// detector or scheduler change, the execution semantics changed in a way
// that breaks recorded schedules; that is a compatibility break, not a
// flake.
func TestTerminatingGoldensReplayByteIdentically(t *testing.T) {
	for _, path := range []string{goldenWPaxos, goldenFlood} {
		a, err := explore.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if a.Violation != nil {
			t.Fatalf("%s records violation %+v, want a healthy terminating run", path, a.Violation)
		}
		replay := func() string {
			out, rp, err := a.Replay(nil)
			if err != nil {
				t.Fatal(err)
			}
			if rp.Diverged() {
				t.Fatalf("%s diverged at step %d: the engine no longer reproduces "+
					"recorded schedules byte-identically", path, rp.DivergedAt())
			}
			if !out.Report.OK() {
				t.Fatalf("%s replay violated: %v", path, out.Report.Errors)
			}
			b, err := json.Marshal(out.Result)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		if replay() != replay() {
			t.Fatalf("%s: two replays differ", path)
		}
		sc := a.Scenario
		sc.MaxEvents = a.MaxEvents
		_, sched, err := sc.RunRecorded()
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(sched)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(a.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s is not the schedule its scenario records; regenerate it (see the commands above)", path)
		}
	}
}

// twophaseStallArtifact is the minimized two-phase stall produced by
// `amacsim -explore -minimize` from the ring:9 coordinator-crash chords cell
// (minimized onto ring:3) — the paper's Theorem 3.2 counterexample, kept
// as the repo's canonical violating artifact now that the wPAXOS and
// floodpaxos stalls are fixed. See internal/explore/campaign_test.go for
// the parallel-shrink determinism pin on the same file.
const twophaseStallArtifact = "testdata/stall_twophase_coordinator_chords.json"

// TestTwophaseStallArtifactReplaysByteIdentically: the committed artifact
// must replay with zero divergence, reproduce exactly the violation it
// records, and do so deterministically.
func TestTwophaseStallArtifactReplaysByteIdentically(t *testing.T) {
	a, err := explore.ReadFile(twophaseStallArtifact)
	if err != nil {
		t.Fatal(err)
	}
	if a.Violation == nil || a.Violation.Kind != consensus.KindNonTermination {
		t.Fatalf("artifact records %+v, want a non-termination violation", a.Violation)
	}
	replay := func() string {
		out, rp, err := a.Replay(nil)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Diverged() {
			t.Fatalf("committed artifact diverged at step %d", rp.DivergedAt())
		}
		if !out.Report.Agreement || !out.Report.Validity {
			t.Fatalf("replayed stall broke safety: %v", out.Report.Errors)
		}
		v := out.Violation()
		if v == nil || v.Kind != a.Violation.Kind || v.Events != a.Violation.Events || v.Quiescent != a.Violation.Quiescent {
			t.Fatalf("replay classified as %+v, artifact records %+v", v, a.Violation)
		}
		b, err := json.Marshal(out.Result)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if replay() != replay() {
		t.Fatal("two replays of the committed artifact differ")
	}
}

// TestTwophaseStallArtifactIsMinimal pins the minimizer's value: the
// committed artifact (shrunk onto ring:3 with its overlay deliveries
// pruned) must be strictly smaller than a fresh recording of the ring:9
// stall cell it came from.
func TestTwophaseStallArtifactIsMinimal(t *testing.T) {
	a, err := explore.ReadFile(twophaseStallArtifact)
	if err != nil {
		t.Fatal(err)
	}
	orig := a.Scenario
	orig.Topo.N = 9 // the cell the explorer was pointed at
	orig.MaxEvents = a.MaxEvents
	_, sched, err := orig.RunRecorded()
	if err != nil {
		t.Fatal(err)
	}
	if got, from := len(a.Schedule.Steps), len(sched.Steps); got >= from {
		t.Fatalf("artifact has %d steps, original stall %d — not minimized", got, from)
	}
	if got, from := a.Schedule.Deliveries(), sched.Deliveries(); got >= from {
		t.Fatalf("artifact has %d deliveries, original stall %d — not minimized", got, from)
	}
}
