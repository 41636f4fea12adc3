package explore

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/harness"
)

// stallCell is the canonical explorer and shrinker workload: two-phase
// commit on ring:9 with the coordinator crashing after its first broadcast
// window, under the antipodal-chords overlay, seed 4. Two-phase is the
// paper's Theorem 3.2 counterexample — a crashed coordinator strands every
// witness waiting for phase 2, so the base run quiesces with survivors
// undecided, deterministically. (The wPAXOS and floodpaxos stalls that
// used to anchor these tests were fixed by the Ω failure-detector
// redesign; their artifacts live on as divergence regressions in
// internal/harness/testdata.)
func stallCell() harness.Scenario {
	return harness.Scenario{
		Algo: "twophase", Topo: harness.Topo{Kind: "ring", N: 9},
		Sched: "random", Fack: 4, Seed: 4,
		Crashes: "coordinator", Overlay: "chords", MaxEvents: 200_000,
	}
}

func TestExploreStallCell(t *testing.T) {
	rep, err := Explore(stallCell(), Options{Budget: 64, Seed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Base == nil || rep.Base.Kind != consensus.KindNonTermination {
		t.Fatalf("base violation = %+v, want the known non-termination stall", rep.Base)
	}
	if !rep.Base.Quiescent {
		t.Fatal("the known stall quiesces; base classified as cut off")
	}
	if rep.Stats.Replays != 64 {
		t.Fatalf("replays = %d, want the full budget 64", rep.Stats.Replays)
	}
	if rep.Stats.Violations == 0 || len(rep.Findings) == 0 {
		t.Fatal("perturbations of a stalling schedule found no violations — search is broken")
	}
	for _, f := range rep.Findings {
		if f.Schedule == nil || f.Steps != len(f.Schedule.Steps) {
			t.Fatalf("finding %d carries inconsistent schedule sizes", f.Candidate)
		}
	}
}

// TestExploreDeterministic pins that exploration is a pure function of
// (scenario, options): same findings, same stats, regardless of worker
// interleaving.
func TestExploreDeterministic(t *testing.T) {
	opts := Options{Budget: 48, Seed: 7}
	a, err := Explore(stallCell(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 1 // different pool width must not change results
	b, err := Explore(stallCell(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats differ across runs: %+v vs %+v", a.Stats, b.Stats)
	}
	if len(a.Findings) != len(b.Findings) {
		t.Fatalf("finding counts differ: %d vs %d", len(a.Findings), len(b.Findings))
	}
	for i := range a.Findings {
		fa, fb := a.Findings[i], b.Findings[i]
		if fa.Candidate != fb.Candidate || fa.Violation.Kind != fb.Violation.Kind ||
			fa.Schedule.Fingerprint() != fb.Schedule.Fingerprint() {
			t.Fatalf("finding %d differs: %+v vs %+v", i, fa, fb)
		}
	}
}

func TestExploreHealthyCellFindsNothingFalse(t *testing.T) {
	// wPAXOS survives the very same cell since the Ω detector redesign
	// (leader death rotates the proposership): no perturbation within the
	// model may break it, so every finding would be a false positive.
	sc := stallCell()
	sc.Algo = "wpaxos"
	rep, err := Explore(sc, Options{Budget: 48, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Base != nil {
		t.Fatalf("floodpaxos base run violated: %+v", rep.Base)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("explorer fabricated %d violations against floodpaxos: %+v", len(rep.Findings), rep.Findings[0])
	}
}

func TestShrinkPreservesViolationAndReduces(t *testing.T) {
	sc := stallCell()
	_, sched, err := sc.RunRecorded()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Shrink(sc, sched, consensus.KindNonTermination, ShrinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Artifact
	if a.Violation == nil || a.Violation.Kind != consensus.KindNonTermination {
		t.Fatalf("minimized artifact lost the violation: %+v", a.Violation)
	}
	if !res.Reduced() {
		t.Fatalf("minimization did not reduce the schedule: %d->%d steps, %d->%d deliveries",
			res.FromSteps, len(a.Schedule.Steps), res.FromDeliveries, a.Schedule.Deliveries())
	}
	// The artifact must re-verify standalone: replay from the artifact,
	// no divergence, same violation kind.
	out, rp, err := a.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Diverged() {
		t.Fatalf("minimized artifact diverged at step %d on replay", rp.DivergedAt())
	}
	v := out.Violation()
	if v == nil || v.Kind != consensus.KindNonTermination {
		t.Fatalf("minimized artifact does not reproduce on replay: %+v", v)
	}
}

func TestShrinkRefusesHealthySchedule(t *testing.T) {
	sc := stallCell()
	sc.Algo = "wpaxos"
	_, sched, err := sc.RunRecorded()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Shrink(sc, sched, consensus.KindNonTermination, ShrinkOptions{}); err == nil {
		t.Fatal("Shrink accepted a schedule that violates nothing")
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	sc := stallCell()
	out, sched, err := sc.RunRecorded()
	if err != nil {
		t.Fatal(err)
	}
	a := &Artifact{
		Format: ArtifactFormat, Scenario: sc, MaxEvents: sc.MaxEvents,
		Schedule: sched, Violation: out.Violation(), Note: "round-trip test",
	}
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Schedule.Fingerprint() != a.Schedule.Fingerprint() {
		t.Fatal("schedule hash changed across encode/decode")
	}
	// Scenario must survive serialization field for field (MaxEvents
	// deliberately lives on the artifact, not the scenario JSON).
	aj, _ := json.Marshal(a.Scenario)
	bj, _ := json.Marshal(b.Scenario)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("scenario changed across encode/decode: %s vs %s", bj, aj)
	}
	out2, rp, err := b.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Diverged() {
		t.Fatal("decoded artifact diverged on replay")
	}
	if v := out2.Violation(); v == nil || v.Kind != a.Violation.Kind {
		t.Fatalf("decoded artifact reproduces %+v, want %s", v, a.Violation.Kind)
	}
	// Corrupt structure must be rejected at decode time.
	bad := bytes.NewBufferString(`{"format": 99, "schedule": {"fack": 4}}`)
	if _, err := Decode(bad); err == nil {
		t.Fatal("Decode accepted an unknown format version")
	}
}
