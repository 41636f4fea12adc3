package explore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
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
	// So must anything after the artifact: a second value, or garbage.
	var enc bytes.Buffer
	if err := a.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{"", "\n", `{"format": 99} trailing garbage`, "x"} {
		_, err := Decode(strings.NewReader(enc.String() + tail))
		if clean := strings.TrimSpace(tail) == ""; (err == nil) != clean {
			t.Errorf("Decode with %q after the artifact: err = %v", tail, err)
		}
	}
}

// TestCounterexamplePicksMostSevere pins the one pick rule on the
// canonical stall cell: the most severe violation wins, the base run wins
// among equals, then the earliest candidate.
func TestCounterexamplePicksMostSevere(t *testing.T) {
	t.Run("perturbed agreement beats the base stall", func(t *testing.T) {
		rep, a, _, err := Counterexample(stallCell(), Options{Budget: 64, Seed: 1}, false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Base == nil || rep.Base.Kind != consensus.KindNonTermination {
			t.Fatalf("base violation = %+v, want the known non-termination stall", rep.Base)
		}
		if a == nil || a.Violation.Kind != consensus.KindAgreement {
			t.Fatalf("pick = %+v, want an agreement violation", a)
		}
		out, rp, err := a.Replay(nil)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Diverged() {
			t.Fatalf("closed pick diverged at step %d on replay", rp.DivergedAt())
		}
		if v := out.Violation(); v == nil || v.Kind != consensus.KindAgreement {
			t.Fatalf("closed pick replays as %+v, want agreement", v)
		}
	})

	t.Run("budget 0 carries the base run", func(t *testing.T) {
		rep, a, _, err := Counterexample(stallCell(), Options{Seed: 1}, false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats != (Stats{}) || len(rep.Findings) != 0 {
			t.Fatalf("budget 0 searched: %+v, %d findings", rep.Stats, len(rep.Findings))
		}
		if a == nil || a.Violation.Kind != consensus.KindNonTermination ||
			a.Schedule.Fingerprint() != rep.BaseSchedule.Fingerprint() {
			t.Fatalf("pick = %+v, want the base run's non-termination", a)
		}
	})

	t.Run("clean base: most severe, earliest among ties", func(t *testing.T) {
		// The stall cell's algorithm and overlay on line:4 with a
		// mid-broadcast crash: seed 2's base run decides, and its
		// neighborhood holds stalls first and several agreement breaks
		// later.
		sc := stallCell()
		sc.Topo = harness.Topo{Kind: "line", N: 4}
		sc.Crashes, sc.Seed = "midbroadcast", 2
		rep, a, _, err := Counterexample(sc, Options{Budget: 64, Seed: 1}, false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Base != nil {
			t.Fatalf("base run violated: %+v", rep.Base)
		}
		var agreements []*Finding
		for _, f := range rep.Findings {
			if f.Violation.Kind == consensus.KindAgreement {
				agreements = append(agreements, f)
			}
		}
		if len(rep.Findings) == 0 || rep.Findings[0].Violation.Kind == consensus.KindAgreement || len(agreements) < 2 {
			t.Fatalf("findings no longer mix kinds with a tie behind a less severe first: %d findings, %d agreement",
				len(rep.Findings), len(agreements))
		}
		rs := &runnerSet{runners: map[runnerKey]*harness.ReplayRunner{}}
		first, _, _, err := rs.rerecord(sc, agreements[0].Schedule)
		if err != nil {
			t.Fatal(err)
		}
		second, _, _, err := rs.rerecord(sc, agreements[1].Schedule)
		if err != nil {
			t.Fatal(err)
		}
		if first.Fingerprint() == second.Fingerprint() {
			t.Fatal("the tied agreement findings close to one schedule; the tie case no longer discriminates")
		}
		if a == nil || a.Schedule.Fingerprint() != first.Fingerprint() {
			t.Fatalf("pick is not candidate %d, the earliest agreement finding", agreements[0].Candidate)
		}
	})
}

// TestCounterexampleProducesStallWitness: the committed Theorem 3.2
// witness is what the tool produces — the stall cell's base run, minimized
// without a search, encodes to the committed file byte for byte except
// for its provenance note.
func TestCounterexampleProducesStallWitness(t *testing.T) {
	path := filepath.Join("..", "harness", "testdata", "stall_twophase_coordinator_chords.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	sc := stallCell()
	sc.Inputs = "alternating" // as amacsim's -inputs default names it
	_, a, _, err := Counterexample(sc, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	a.Note = committed.Note
	var got bytes.Buffer
	if err := a.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("minimized stall differs from %s:\n%s", path, got.Bytes())
	}
}
