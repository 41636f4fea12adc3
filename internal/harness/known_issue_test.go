package harness

import "testing"

// TestWPaxosCrashOverlayStallFixed pins the cell that used to be the
// repo's flagship liveness stall: the Theorem 3.2 mid-broadcast crash of
// node 0 on ring:9 with the antipodal-chords overlay, seed 4. Before the
// Ω failure-detector redesign (suspicion + rotation + retransmit-until-
// superseded queues), wPAXOS quiesced here with every survivor undecided
// while floodpaxos decided in the very same cell; the stall was a ROADMAP
// open item anchored by this test. Both algorithms must now terminate.
func TestWPaxosCrashOverlayStallFixed(t *testing.T) {
	cell := Scenario{
		Topo:    Topo{Kind: "ring", N: 9},
		Sched:   "random",
		Fack:    4,
		Seed:    4,
		Crashes: "midbroadcast",
		Overlay: "chords",
		// Cap events defensively: termination should arrive well under the
		// cap, and a regression back into a livelock should fail fast.
		MaxEvents: 200_000,
	}

	for _, algo := range []string{"wpaxos", "floodpaxos"} {
		sc := cell
		sc.Algo = algo
		out, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !out.Report.Termination {
			t.Fatalf("%s stalled on ring:9 midbroadcast+chords seed 4 "+
				"(events=%d quiescent=%v cutoff=%v): the leader-death liveness fix regressed",
				algo, out.Result.Events, out.Result.Quiescent, out.Result.Cutoff)
		}
		if !out.Report.OK() {
			t.Fatalf("%s termination broke another property: %v", algo, out.Report.Errors)
		}
	}
}

// TestFloodPaxosLeaderDeathExtraOverlayFixed pins the second retired stall:
// floodpaxos on grid:3x3 with a seeded extra overlay, the max-id leader
// (node 8) crashing at T=3, seed 1. The monotone max-id election
// waited on the corpse forever; the suspicion detector must now rotate the
// proposership and terminate.
func TestFloodPaxosLeaderDeathExtraOverlayFixed(t *testing.T) {
	cell := Scenario{
		Algo:      "floodpaxos",
		Topo:      Topo{Kind: "grid", Rows: 3, Cols: 3},
		Sched:     "random",
		Fack:      4,
		Seed:      1,
		Crashes:   "one@3",
		Overlay:   "extra:4@0.6",
		MaxEvents: 200_000,
	}
	out, err := cell.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Report.Termination {
		t.Fatalf("floodpaxos stalled on ring:9 one@3+extra seed 6 "+
			"(events=%d quiescent=%v cutoff=%v): the leader-death liveness fix regressed",
			out.Result.Events, out.Result.Quiescent, out.Result.Cutoff)
	}
	if !out.Report.OK() {
		t.Fatalf("termination broke another property: %v", out.Report.Errors)
	}
	// maxid@T is the registry spelling of the same leader-death axis; the
	// alias must reproduce the one@T schedule exactly.
	alias := cell
	alias.Crashes = "maxid@3"
	out2, err := alias.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Report.Termination || out2.Result.Events != out.Result.Events {
		t.Fatalf("maxid@3 diverged from one@3: events %d vs %d",
			out2.Result.Events, out.Result.Events)
	}
}
