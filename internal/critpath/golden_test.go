package critpath_test

// Golden critical-path test: replaying the two committed terminating
// artifacts (the re-recorded cells from the Ω detector fix, see
// internal/harness/replay_golden_test.go) must produce exactly the phase
// breakdown pinned here, and the breakdown must sum to the recorded decide
// time — the partition invariant. The file lives in the external test
// package because it drives the replay through internal/explore, which
// critpath itself must not import (sim already imports metrics; keeping
// critpath's dependencies to the algorithm packages avoids any cycle risk
// and keeps it usable from the harness).
//
// If this test fails after an engine or scheduler change together with
// TestTerminatingGoldensReplayByteIdentically, the execution semantics
// changed — re-record the goldens. If it fails alone, the extraction
// itself regressed.

import (
	"testing"

	"github.com/absmac/absmac/internal/critpath"
	"github.com/absmac/absmac/internal/explore"
)

func TestGoldenCriticalPaths(t *testing.T) {
	cases := []struct {
		path       string
		decideTime int64
		decideNode int
		hops       int
		spans      map[string]int64
	}{
		{
			// ring:9 mid-broadcast crash + chords overlay, wPAXOS. The
			// election settles in 11 ticks; the bulk of the latency is the
			// acceptor responses, aggregated and relayed, bouncing across
			// the ring.
			path:       "../harness/testdata/golden_wpaxos_midbroadcast_chords.json",
			decideTime: 59,
			decideNode: 2,
			hops:       26,
			spans:      map[string]int64{"election": 11, "proposal": 2, "aggregation": 34, "stall": 12},
		},
		{
			// grid:3x3 one@3 crash + extra edge, floodpaxos. The flooding
			// baseline spends most of its decide latency in election-class
			// gossip — exactly the O(n) vs O(D) gap the paper's wPAXOS
			// routing avoids.
			path:       "../harness/testdata/golden_floodpaxos_one3_extra.json",
			decideTime: 602,
			decideNode: 3,
			hops:       222,
			spans:      map[string]int64{"election": 467, "aggregation": 19, "stall": 116},
		},
	}
	for _, tc := range cases {
		extract := func() *critpath.Report {
			a, err := explore.ReadFile(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			c := critpath.NewCollector(critpath.ClassifierFor(a.Scenario.Algo))
			if _, rp, err := a.Replay(c.Observer()); err != nil {
				t.Fatal(err)
			} else if rp.Diverged() {
				t.Fatalf("%s diverged; see the harness golden replay test", tc.path)
			}
			return c.Extract()
		}
		rep := extract()
		if !rep.Decided || rep.DecideTime != tc.decideTime || rep.DecideNode != tc.decideNode {
			t.Fatalf("%s: decide (t=%d, node=%d, decided=%v), want (t=%d, node=%d)",
				tc.path, rep.DecideTime, rep.DecideNode, rep.Decided, tc.decideTime, tc.decideNode)
		}
		if rep.Sum() != rep.DecideTime {
			t.Fatalf("%s: spans sum to %d, decide time %d — partition invariant broken",
				tc.path, rep.Sum(), rep.DecideTime)
		}
		if len(rep.Hops) != tc.hops {
			t.Fatalf("%s: %d hops, want %d", tc.path, len(rep.Hops), tc.hops)
		}
		if len(rep.Spans) != len(tc.spans) {
			t.Fatalf("%s: spans %+v, want %v", tc.path, rep.Spans, tc.spans)
		}
		for _, sp := range rep.Spans {
			if tc.spans[sp.Phase] != sp.Ticks {
				t.Fatalf("%s: span %s = %d ticks, want %d", tc.path, sp.Phase, sp.Ticks, tc.spans[sp.Phase])
			}
		}
		// Chronological, causally linked chain ending at the decider.
		for i := 1; i < len(rep.Hops); i++ {
			prev, h := rep.Hops[i-1], rep.Hops[i]
			if prev.To != h.From || h.SentAt < prev.RecvAt {
				t.Fatalf("%s: hop %d not causally chained: %+v -> %+v", tc.path, i, prev, h)
			}
		}
		if n := len(rep.Hops); n > 0 && rep.Hops[n-1].To != tc.decideNode {
			t.Fatalf("%s: chain ends at %d, decider is %d", tc.path, rep.Hops[n-1].To, tc.decideNode)
		}
		// Deterministic: a second replay extracts the identical report.
		rep2 := extract()
		if len(rep2.Hops) != len(rep.Hops) || rep2.Sum() != rep.Sum() {
			t.Fatalf("%s: two extractions differ", tc.path)
		}
		for i := range rep.Hops {
			if rep.Hops[i] != rep2.Hops[i] {
				t.Fatalf("%s: hop %d differs across extractions: %+v vs %+v",
					tc.path, i, rep.Hops[i], rep2.Hops[i])
			}
		}
	}
}
