// Partition: two ways to split a network, and what each one costs.
//
// Part I is the Figure 2 lower-bound construction (Theorem 3.9): an
// algorithm with unique ids and a correct diameter bound — but no
// knowledge of the network size — runs on K_D while the adversarial
// scheduler silences the hub. Each line of K_D is then indistinguishable
// from a standalone line, so the 0-line decides 0 and the 1-line decides
// 1: a split-brain. Give the algorithm n (gatherall) and the construction
// loses its power.
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
	"fmt"
	"os"

	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/lowerbound"
)

func main() {
	const d = 6
	res, err := lowerbound.RunSizeImpossibility(d)
	if err != nil {
		fmt.Fprintln(os.Stderr, "partition:", err)
		os.Exit(1)
	}
	fmt.Println("Part I — partition by silence (Theorem 3.9)")
	fmt.Printf("K_%d: two lines of %d nodes plus a %d-node tail, all wired to one hub (%d nodes total)\n",
		d, d+1, d-1, res.KD.G.N())
	fmt.Printf("round budget from the (known) diameter bound: %d\n\n", res.Rounds)

	fmt.Println("1. Control: the n-oblivious gatherer on a standalone line, synchronous scheduler.")
	fmt.Printf("   consensus OK: %v  (this is Lemma 3.8: the algorithm is fine when the network IS a line)\n\n", res.ControlLineOK)

	fmt.Println("2. The construction: same algorithm on K_D, hub silenced by the scheduler.")
	fmt.Printf("   split-brain: %v — the all-zeros line decided %d, the all-ones line decided %d\n",
		res.ViolationInKD, res.L1Decision, res.L2Decision)
	fmt.Println("   (each line cannot tell K_D from the standalone line of Lemma 3.8: Theorem 3.9)")
	fmt.Println()

	fmt.Println("3. Control: gatherall, which knows n, on the same K_D under the same scheduler.")
	fmt.Printf("   consensus OK: %v  (knowing n, it simply waits out the silence)\n\n", res.ControlWithNOK)

	// Part II assembles everything by registry name — the same specs work
	// as `amacsim -crash coordinator` or as `-crashes`/`-overlays` sweep
	// axes.
	fmt.Println("Part II — partition by crashing (adversity registries)")

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
		fmt.Fprintln(os.Stderr, "partition:", err)
		os.Exit(1)
	}
	// No survivor can decide: each 3-node arm is below the majority of 7.
	// The run is not quiescent — since the Ω failure-detector redesign the
	// survivors keep suspecting, rotating and retransmitting — so it ends
	// only at the event cap, still undecided.
	stalled := !hubCrash.Report.SomeoneDecided && hubCrash.Result.Cutoff
	fmt.Println("4. wPAXOS on starlines:2x3 with the hub crashed (crashes=coordinator).")
	fmt.Printf("   stalled: %v, split-brain: %v — no 3-node arm can reach a majority of 7,\n", stalled, !hubCrash.Report.Agreement)
	fmt.Println("   so wPAXOS searches forever rather than decide inconsistently (safety over liveness)")
	fmt.Println()

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
		fmt.Fprintln(os.Stderr, "partition:", err)
		os.Exit(1)
	}
	fmt.Println("5. Same algorithm, survivable fault: wPAXOS on clique:8, mid-broadcast crash of node 0.")
	fmt.Printf("   consensus OK: %v — %d crashed, survivors decided %d by t=%d (termination despite faults)\n",
		majority.Violation() == nil, majority.Report.Crashed, majority.Report.Value, majority.Report.SurvivorDecideTime)

	if !res.ViolationInKD || !res.ControlLineOK || !res.ControlWithNOK ||
		!stalled || !hubCrash.Report.Agreement || majority.Violation() != nil {
		os.Exit(1)
	}
}
