package exp

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/explore"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/harness"
)

// The impossibility constructions of E2–E4, one assertion per fact their
// tables report, and each construction's witness as a counterexample
// artifact.

// checkWitness records s, which must break agreement, round-trips the
// recording as an explore.Artifact and replays it through a ReplayRunner:
// the replay must stay on the recording and show the same violation.
func checkWitness(t *testing.T, s harness.Scenario) {
	t.Helper()
	out, sched, err := s.RunRecorded()
	if err != nil {
		t.Fatal(err)
	}
	v := out.Violation()
	if v == nil || v.Kind != consensus.KindAgreement {
		t.Fatalf("%s on %s: violation %+v, want an agreement break", s.Algo, s.Topo, v)
	}
	var buf bytes.Buffer
	if err := (&explore.Artifact{Format: explore.ArtifactFormat, Scenario: s, Schedule: sched, Violation: v}).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	a, err := explore.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := a.Scenario.NewReplayRunner()
	if err != nil {
		t.Fatal(err)
	}
	replayed, rp, err := runner.Run(a.Schedule, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Diverged() {
		t.Fatalf("%s on %s: replay diverged at step %d", s.Algo, s.Topo, rp.DivergedAt())
	}
	if got := replayed.Violation(); !reflect.DeepEqual(got, a.Violation) {
		t.Fatalf("%s on %s: replay shows %+v, the recording %+v", s.Algo, s.Topo, got, a.Violation)
	}
}

// TestAnonImpossibility: on Figure 1 the anonymous algorithm decides on
// network B, splits network A's gadget copies 0/1, and never reads an id.
func TestAnonImpossibility(t *testing.T) {
	for i, tc := range []struct{ d, n int }{{6, 6}, {8, 40}} {
		fig := graph.BuildFigure1(tc.d, tc.n)
		runs := anonRuns(fig, tc.d, tc.n)
		outs, reads, err := runAll(runs, true)
		if err != nil {
			t.Fatalf("D=%d n=%d: %v", tc.d, tc.n, err)
		}
		if !outs[0].Report.OK() {
			t.Errorf("D=%d n=%d: anonymous algorithm failed on network B (control)", tc.d, tc.n)
		}
		if outs[1].Report.Agreement {
			t.Errorf("D=%d n=%d: no agreement violation on network A", tc.d, tc.n)
		}
		if reads != 0 {
			t.Errorf("D=%d n=%d: algorithm read ids %d times; construction requires anonymity", tc.d, tc.n, reads)
		}
		c := fig.Gadget.C()
		if g0, g1 := decision(outs[1], fig.AGadget[0][c]), decision(outs[1], fig.AGadget[1][c]); g0 != 0 || g1 != 1 {
			t.Errorf("D=%d n=%d: gadget decisions %d/%d, want 0/1", tc.d, tc.n, g0, g1)
		}
		if i == 0 {
			checkWitness(t, runs[1])
		}
	}
}

// TestSizeImpossibility: the n-oblivious gatherer decides on the line,
// splits K_D's lines 0/1, and gatherall, knowing n, decides on K_D.
func TestSizeImpossibility(t *testing.T) {
	for _, d := range []int{2, 4, 6} {
		kd := graph.BuildKD(d)
		runs := sizeRuns(d)
		outs, _, err := runAll(runs, false)
		if err != nil {
			t.Fatalf("D=%d: %v", d, err)
		}
		if !outs[0].Report.OK() {
			t.Errorf("D=%d: n-oblivious algorithm failed on the standalone line (control)", d)
		}
		if outs[1].Report.Agreement {
			t.Errorf("D=%d: no split-brain on K_D", d)
		}
		if l1, l2 := decision(outs[1], kd.L1[0]), decision(outs[1], kd.L2[0]); l1 != 0 || l2 != 1 {
			t.Errorf("D=%d: line decisions %d/%d, want 0/1", d, l1, l2)
		}
		if !outs[2].Report.OK() {
			t.Errorf("D=%d: gatherall (knows n) failed on K_D (control)", d)
		}
		if d == 4 {
			checkWitness(t, runs[1])
		}
	}
}

// TestPartitionHarness: the hasty algorithm decides before
// floor(D/2)*Fack and splits the line.
func TestPartitionHarness(t *testing.T) {
	for i, tc := range []struct {
		d    int
		fack int64
	}{{4, 1}, {8, 3}, {16, 5}} {
		hasty := partitionRuns(tc.d, tc.fack)[0]
		out, err := hasty.Run()
		if err != nil {
			t.Fatalf("D=%d: %v", tc.d, err)
		}
		at, bound := out.Result.MaxDecideTime, int64(tc.d/2)*tc.fack
		if out.Report.Agreement {
			t.Errorf("D=%d Fack=%d: hasty algorithm got away with deciding at %d (bound %d)", tc.d, tc.fack, at, bound)
		}
		if at >= bound {
			t.Errorf("D=%d Fack=%d: hasty decided at %d, not before the bound %d", tc.d, tc.fack, at, bound)
		}
		if i == 0 {
			checkWitness(t, hasty)
		}
	}
}

// TestCorrectAlgorithmsRespectTheBound closes the E4 loop: wPAXOS never
// decides before floor(D/2)*Fack under the maximum-delay scheduler (it
// cannot, by Theorem 3.10 — this verifies the implementation is not
// accidentally "hasty").
func TestCorrectAlgorithmsRespectTheBound(t *testing.T) {
	const fack = 3
	for _, d := range []int{4, 8, 12} {
		out, err := partitionRuns(d, fack)[1].Run()
		if err != nil {
			t.Fatal(err)
		}
		if v := out.Violation(); v != nil {
			t.Fatalf("D=%d: %v", d, v.Errors)
		}
		if earliest, bound := earliestDecision(out), int64(d/2)*fack; earliest < bound {
			t.Fatalf("D=%d: earliest decision %d beats the floor(D/2)*Fack=%d bound", d, earliest, bound)
		}
	}
}
