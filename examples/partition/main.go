// Partition: two ways to split a network, and what each one costs.
//
// Part I is the Figure 2 lower-bound construction (Theorem 3.9): an
// algorithm with unique ids and a correct diameter bound — but no
// knowledge of the network size — runs on K_D while the adversarial
// scheduler silences the hub. Each line of K_D is then indistinguishable
// from a standalone line, so the 0-line decides 0 and the 1-line decides
// 1: a split-brain. Give the algorithm n (gatherall) and the construction
// loses its power. Each run is a registry name, as in experiment E3, so
// the split-brain records and replays with its critical path:
//
//	go run ./cmd/amacsim -algo waitall@42 -topo kd:6 -sched gate@44 -inputs cut -fack 1 -record w.json
//	go run ./cmd/amacsim -replay w.json -critpath
//
// Part II partitions by crashing instead of silencing, built entirely
// from the harness adversity registries (the same crash patterns behind
// `amacsim -crash` and the sweep fault axes). Killing the hub of a
// star-of-lines physically splits the network: wPAXOS stalls — neither
// arm can assemble a majority — but it never split-brains, because a real
// crash, unlike adversarial silence, cannot later "wake up" and is
// covered by wPAXOS's quorum math. A crash pattern that leaves the
// majority intact (a mid-broadcast crash on a clique, the Theorem 3.2
// failure) costs nothing: the survivors decide and consensus holds.
//
// Run with:
//
//	go run ./examples/partition
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/absmac/absmac/internal/baseline/waitall"
	"github.com/absmac/absmac/internal/harness"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "partition:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	const d = 6
	rounds := waitall.RoundsForDiameter(d)
	// The n-oblivious gatherer on the standalone line, then on K_D with the
	// hub silent until both lines have decided and the second line (L2)
	// starting with 1; then gatherall, which knows n, on the same K_D.
	line := harness.Scenario{Algo: fmt.Sprintf("waitall@%d", rounds), Topo: harness.Topo{Kind: "line", N: d + 1},
		Sched: "sync", Fack: 1}
	split := line
	split.Topo, split.Inputs, split.Sched = harness.Topo{Kind: "kd", Diam: d}, "cut", fmt.Sprintf("gate@%d", rounds+2)
	withN := split
	withN.Algo = "gatherall"
	outs := make([]*harness.Outcome, 3)
	for i, s := range []harness.Scenario{line, split, withN} {
		var err error
		if outs[i], err = s.Run(); err != nil {
			return err
		}
	}
	controlLineOK, violation, controlWithNOK := outs[0].Report.OK(), !outs[1].Report.Agreement, outs[2].Report.OK()
	fmt.Fprintln(w, "Part I — partition by silence (Theorem 3.9)")
	fmt.Fprintf(w, "K_%d: two lines of %d nodes plus a %d-node tail, all wired to one hub (%d nodes total)\n",
		d, d+1, d-1, outs[1].N)
	fmt.Fprintf(w, "round budget from the (known) diameter bound: %d\n\n", rounds)

	fmt.Fprintln(w, "1. Control: the n-oblivious gatherer on a standalone line, synchronous scheduler.")
	fmt.Fprintf(w, "   consensus OK: %v  (this is Lemma 3.8: the algorithm is fine when the network IS a line)\n\n", controlLineOK)

	fmt.Fprintln(w, "2. The construction: same algorithm on K_D, hub silenced by the scheduler.")
	// Node 0 starts L1, node d+1 starts L2 (graph.BuildKD).
	fmt.Fprintf(w, "   split-brain: %v — the all-zeros line decided %d, the all-ones line decided %d\n",
		violation, outs[1].Result.Decision[0], outs[1].Result.Decision[d+1])
	fmt.Fprintln(w, "   (each line cannot tell K_D from the standalone line of Lemma 3.8: Theorem 3.9)")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "3. Control: gatherall, which knows n, on the same K_D under the same scheduler.")
	fmt.Fprintf(w, "   consensus OK: %v  (knowing n, it simply waits out the silence)\n\n", controlWithNOK)

	// Part II assembles everything by registry name — the same specs work
	// as `amacsim -crash coordinator` or as entries of the `-crash` and
	// `-overlay` lists that `amacsim -sweep` crosses.
	fmt.Fprintln(w, "Part II — partition by crashing (adversity registries)")

	hubCrash, err := harness.Scenario{
		Algo: "wpaxos",
		Topo: harness.Topo{Kind: "starlines", Arms: 2, ArmLen: 3},
		// "coordinator" crashes node 0 — the hub — right after its first
		// broadcast window, physically splitting the two arms.
		Crashes:   "coordinator",
		Sched:     "random",
		Fack:      4,
		Seed:      1,
		MaxEvents: 500_000,
	}.Run()
	if err != nil {
		return err
	}
	// No survivor can decide: each 3-node arm is below the majority of 7.
	// The run is not quiescent — the survivors keep suspecting, rotating
	// and retransmitting — so it ends only at the event cap, still
	// undecided.
	stalled := !hubCrash.Report.SomeoneDecided && hubCrash.Result.Cutoff
	fmt.Fprintln(w, "4. wPAXOS on starlines:2x3 with the hub crashed (crashes=coordinator).")
	fmt.Fprintf(w, "   stalled: %v, split-brain: %v — no 3-node arm can reach a majority of 7,\n", stalled, !hubCrash.Report.Agreement)
	fmt.Fprintln(w, "   so wPAXOS searches forever rather than decide inconsistently (safety over liveness)")
	fmt.Fprintln(w)

	majority, err := harness.Scenario{
		Algo: "wpaxos",
		Topo: harness.Topo{Kind: "clique", N: 8},
		// Theorem 3.2's failure: node 0 dies inside its first broadcast
		// window, so some neighbors saw the message and the rest did not.
		Crashes:   "midbroadcast",
		Sched:     "random",
		Fack:      4,
		Seed:      1,
		MaxEvents: 500_000,
	}.Run()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "5. Same algorithm, survivable fault: wPAXOS on clique:8, mid-broadcast crash of node 0.")
	fmt.Fprintf(w, "   consensus OK: %v — %d crashed, survivors decided %d by t=%d (termination despite faults)\n",
		majority.Violation() == nil, majority.Report.Crashed, majority.Report.Value, majority.Report.SurvivorDecideTime)

	if !violation || !controlLineOK || !controlWithNOK ||
		!stalled || !hubCrash.Report.Agreement || majority.Violation() != nil {
		return errors.New("a construction or control did not come out as the paper says")
	}
	return nil
}
