package lowerbound

import (
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/core/twophase"
)

// TestBivalentInitialExists mirrors FLP Lemma 2 for the two-phase
// algorithm: among the 2^n initial configurations there is a bivalent one
// (mixed inputs under scheduling freedom alone, no crashes needed).
func TestBivalentInitialExists(t *testing.T) {
	inputs, ok := FindBivalentInitial(2, twophase.Factory, 0, 40)
	if !ok {
		t.Fatal("no bivalent initial configuration found for two-phase on n=2")
	}
	if inputs[0] == inputs[1] {
		t.Fatalf("bivalent inputs %v should be mixed", inputs)
	}
}

// TestUnanimousConfigsUnivalent checks the complementary fact: unanimous
// initial configurations are univalent for their common value (validity
// forces it).
func TestUnanimousConfigsUnivalent(t *testing.T) {
	for _, v := range []amac.Value{0, 1} {
		e := &Explorer{
			N:       2,
			Factory: twophase.Factory,
			Inputs:  []amac.Value{v, v},
		}
		val := e.Valency(nil)
		if !val.Univalent() {
			t.Fatalf("unanimous %d: valency %v, want univalent", v, val)
		}
		if (v == 0) != val.Reach0 {
			t.Fatalf("unanimous %d: valency %v", v, val)
		}
		if val.Dead {
			t.Fatalf("unanimous %d without crashes: dead configuration reachable", v)
		}
	}
}

// TestNoCrashAlwaysTerminates verifies that without crash steps every
// valid-step schedule of two-phase reaches a decision (Theorem 4.1's
// termination, checked exhaustively on small cliques). The n=3 state space
// dominates the whole test suite's runtime, so short mode stops at n=2 —
// still an exhaustive proof at that size; the full tier-1 suite keeps the
// full exploration. The number of configurations each exploration visits
// is pinned per (n, mask), at depth 40 and 60 alike for n=2: a change to
// the explorer's fingerprint or its successor rule that keeps every
// verdict still has to keep these.
func TestNoCrashAlwaysTerminates(t *testing.T) {
	maxN, depth := 3, 60
	if testing.Short() {
		maxN, depth = 2, 40
	}
	visited := map[int][]int{
		2: {36, 52, 52, 36},
		3: {25890, 123579, 122298, 121509, 121509, 122298, 123579, 25890},
	}
	for n := 2; n <= maxN; n++ {
		for mask := 0; mask < 1<<n; mask++ {
			inputs := make([]amac.Value, n)
			for i := range inputs {
				if mask&(1<<i) != 0 {
					inputs[i] = 1
				}
			}
			e := &Explorer{N: n, Factory: twophase.Factory, Inputs: inputs, MaxDepth: depth}
			val := e.Valency(nil)
			if val.Dead {
				t.Fatalf("n=%d mask=%b: dead configuration reachable without crashes", n, mask)
			}
			if val.Truncated {
				t.Fatalf("n=%d mask=%b: exploration truncated; raise MaxDepth", n, mask)
			}
			if !val.Reach0 && !val.Reach1 {
				t.Fatalf("n=%d mask=%b: no decision reachable", n, mask)
			}
			if got, want := e.Visited(), visited[n][mask]; got != want {
				t.Errorf("n=%d mask=%b: visited %d configurations, want %d", n, mask, got, want)
			}
		}
	}
}

// TestCrashStallsTwoPhase is the executable face of Theorem 3.2: with a
// single crash the adversary can drive two-phase into a configuration from
// which no one ever decides.
func TestCrashStallsTwoPhase(t *testing.T) {
	schedule, ok := FindStallingSchedule(2, twophase.Factory, []amac.Value{0, 1}, 1, 30)
	if !ok {
		t.Fatal("no stalling schedule found with one crash (Theorem 3.2 witness missing)")
	}
	crashes := 0
	for _, s := range schedule {
		if s.Crash {
			crashes++
		}
	}
	if crashes != 1 {
		t.Fatalf("stalling schedule %v uses %d crashes, want exactly 1", schedule, crashes)
	}
}

// TestValencyStrings exercises the classification helpers.
func TestValencyStrings(t *testing.T) {
	cases := []struct {
		v    Valency
		want string
	}{
		{Valency{Reach0: true, Reach1: true}, "bivalent"},
		{Valency{Reach0: true}, "0-valent"},
		{Valency{Reach1: true}, "1-valent"},
		{Valency{Dead: true}, "dead"},
		{Valency{}, "undecided"},
	}
	for _, tc := range cases {
		if tc.v.String() != tc.want {
			t.Fatalf("%+v -> %q, want %q", tc.v, tc.v.String(), tc.want)
		}
	}
	if !(Valency{Reach0: true}).Univalent() || (Valency{Reach0: true, Reach1: true}).Univalent() {
		t.Fatal("Univalent misbehaves")
	}
}

func TestStepString(t *testing.T) {
	if (Step{Node: 2}).String() != "step(2)" || (Step{Node: 1, Crash: true}).String() != "crash(1)" {
		t.Fatal("Step strings")
	}
}

func TestExplorerValidation(t *testing.T) {
	for _, e := range []*Explorer{
		{N: 1, Factory: twophase.Factory, Inputs: []amac.Value{0}},
		{N: 2, Factory: twophase.Factory, Inputs: []amac.Value{0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			e.Valency(nil)
		}()
	}
}

// TestVisitedCounts pins the size of one exploration: n=2, inputs {0, 1}
// (mask 0b10), the default depth.
func TestVisitedCounts(t *testing.T) {
	e := &Explorer{N: 2, Factory: twophase.Factory, Inputs: []amac.Value{0, 1}}
	e.Valency(nil)
	if got := e.Visited(); got != 52 {
		t.Fatalf("explorer visited %d configurations, want 52", got)
	}
}

// TestLemma31Boundary probes Lemma 3.1 against the two-phase algorithm.
// The lemma says that for an algorithm solving consensus with one crash
// failure, bivalence can be preserved forever (extension by extension,
// round-robin over nodes) — the engine of the Theorem 3.2 contradiction.
// Two-phase terminates, so by Theorem 3.2 it is NOT 1-crash tolerant, and
// the lemma's conclusion must fail for it somewhere: there must be a
// reachable bivalent configuration and a node u such that every valid
// u-ending extension kills bivalence. This test locates that boundary.
func TestLemma31Boundary(t *testing.T) {
	e := &Explorer{N: 2, Factory: twophase.Factory, Inputs: []amac.Value{0, 1}, MaxDepth: 30}
	if !e.Valency(nil).Bivalent() {
		t.Fatal("initial configuration not bivalent; premise broken")
	}
	// From the initial bivalent configuration the lemma's object exists
	// for node 0: delivering node 0's phase-1 value keeps both outcomes
	// reachable (node 0 can still ack before hearing the 1).
	schedule, ok := e.BivalentExtension(nil, 0)
	if !ok {
		t.Fatal("no bivalence-preserving extension ending in a step of node 0")
	}
	if last := schedule[len(schedule)-1]; last.Node != 0 || last.Crash {
		t.Fatalf("extension ends with %v, want a valid step of node 0", last)
	}
	// But for node 1 it never exists: any step of node 1 either delivers
	// its phase-1 value (after which no decided(0) status is reachable
	// anywhere) or is an ack implying that delivery already happened. The
	// search failing here is the lemma's conclusion breaking — as it must
	// for a terminating algorithm, certifying via Theorem 3.2's logic
	// that two-phase cannot tolerate a crash.
	if _, ok := e.BivalentExtension(nil, 1); ok {
		t.Fatal("bivalence-preserving node-1 extension found; expected the lemma to fail for a terminating algorithm")
	}
	if !e.Valency([]Step{{Node: 0}}).Bivalent() {
		t.Fatal("the post-step(0) configuration should still be bivalent")
	}
}

func TestBivalentExtensionValidation(t *testing.T) {
	e := &Explorer{N: 2, Factory: twophase.Factory, Inputs: []amac.Value{0, 1}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range node")
		}
	}()
	e.BivalentExtension(nil, 5)
}
