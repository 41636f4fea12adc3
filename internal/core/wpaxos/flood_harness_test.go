package wpaxos_test

// These tests drive the flood transport through the harness (the
// topology, crash and overlay registries the CLIs use, under the name
// floodpaxos), which imports this package — hence the external test
// package.

import (
	"fmt"
	"testing"

	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/metrics"
	"github.com/absmac/absmac/internal/sim"
)

// TestFloodDecideTimeScalesWithN pins the flood transport's cost from both
// sides on expander:{64,128,256}:8 (diameter 3-4 throughout, so any growth
// is the response backlog): decide time stays under 1*n*Fack — measured
// 0.25-0.31; relaying responses nobody can count any more costs ~18*n — and
// grows strictly with n at every seed, which aggregation or a majority cap
// would flatten to O(D*Fack).
func TestFloodDecideTimeScalesWithN(t *testing.T) {
	const fack = 4
	for seed := int64(1); seed <= 4; seed++ {
		prev := int64(0)
		for _, n := range []int{64, 128, 256} {
			sc := harness.Scenario{
				Algo:  "floodpaxos",
				Topo:  harness.Topo{Kind: "expander", N: n, Deg: 8},
				Sched: "random",
				Fack:  fack,
				Seed:  seed,
			}
			out, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if out.Violation() != nil {
				t.Fatalf("n=%d seed %d: %v", n, seed, out.Report.Errors)
			}
			got := out.Result.MaxDecideTime
			if got > int64(n)*fack {
				t.Errorf("n=%d seed %d: decided at t=%d = %.2f*n*Fack, want <= 1*n*Fack",
					n, seed, got, float64(got)/float64(int64(n)*fack))
			}
			if got <= prev {
				t.Errorf("n=%d seed %d: decided at t=%d, no later than t=%d at half the size: the flood transport stopped paying per acceptor",
					n, seed, got, prev)
			}
			prev = got
		}
	}
}

// TestSurvivorsDecideAfterHighestProposerDies runs the flood transport
// and crashes the max-id leader — the proposer holding the highest number —
// inside its accept phase, which runs from its first Propose broadcast to
// the first decision of the crash-free execution (identical up to the
// crash). No refusal travels and the proposer is gone. Halfway through the
// phase the accept responses in flight are live at every survivor, and the
// survivors' accept tallies must finish the job within two silence bounds
// of the crash. One tick into it the Propose has reached almost nobody:
// the survivors hold a dead round that only the detector's rotation can
// supersede, so there the test asks for termination and safety alone (the
// rotation takes several bounds, each demotion's change flood resetting
// the other nodes' silence windows).
func TestSurvivorsDecideAfterHighestProposerDies(t *testing.T) {
	const n, fack = 32, 4
	bound := int64(fack * (4*n + 8)) // omega.Detector.Bound at fhat = Fack, mult = 1
	for _, overlay := range []string{"none", "chords"} {
		for seed := int64(1); seed <= 4; seed++ {
			sc := harness.Scenario{
				Algo:      "floodpaxos",
				Topo:      harness.Topo{Kind: "expander", N: n, Deg: 4},
				Sched:     "random",
				Fack:      fack,
				Seed:      seed,
				Overlay:   overlay,
				MaxEvents: 1_000_000,
			}
			cfg, err := sc.Config()
			if err != nil {
				t.Fatal(err)
			}
			proposeAt, decideAt := int64(-1), int64(-1)
			cfg.Observer = func(ev sim.Event) {
				switch ev.Kind {
				case sim.EventBroadcast:
					c := ev.Message.(*wpaxos.Combined)
					if proposeAt < 0 && ev.Node == n-1 && c.Proposer != nil && c.Proposer.Kind == wpaxos.Propose {
						proposeAt = ev.Time
					}
				case sim.EventDecide:
					if decideAt < 0 {
						decideAt = ev.Time
					}
				}
			}
			sim.Run(cfg)
			if proposeAt < 0 || decideAt <= proposeAt {
				t.Fatalf("overlay %s seed %d: crash-free run has no accept phase of the max-id leader (propose at %d, first decision at %d)",
					overlay, seed, proposeAt, decideAt)
			}
			for _, crash := range []struct {
				at      int64
				bounded bool
			}{
				{proposeAt + 1, false},
				{(proposeAt + decideAt) / 2, true},
			} {
				crashAt := crash.at
				sc.Crashes = fmt.Sprintf("maxid@%d", crashAt)
				out, err := sc.Run()
				if err != nil {
					t.Fatal(err)
				}
				if out.Violation() != nil {
					t.Fatalf("overlay %s seed %d, leader dead at t=%d: %v", overlay, seed, crashAt, out.Report.Errors)
				}
				if got := out.Report.SurvivorDecideTime; crash.bounded && got > crashAt+2*bound {
					t.Errorf("overlay %s seed %d: leader dead at t=%d, survivors decided at t=%d, want within 2 silence bounds (%d ticks)",
						overlay, seed, crashAt, got, 2*bound)
				}
			}
		}
	}
}

// TestRelayCapCoversMeasuredPeaks holds the relay cycle's capacity to the
// peaks it was measured from: on expander:n:8 (random scheduler, Fack 4,
// seeds 1-6) no node's cycle may outgrow relayCap, read from the relay
// gauge's high-water, and relayCap may exceed that peak by at most a
// third. A capacity below a peak regrows that node's cycle by append on
// every run; one far above it is storage no run fills, held by every node
// (a capacity of n fails at n = 128). -short runs the cells up to n = 256.
func TestRelayCapCoversMeasuredPeaks(t *testing.T) {
	for _, c := range []struct {
		algo, gauge string
		n           int
	}{
		{"floodpaxos", "flood_relay_pending", 128},
		{"floodpaxos", "flood_relay_pending", 1024},
		{"wpaxos", "wpaxos_relay_pending", 64},
		{"wpaxos", "wpaxos_relay_pending", 256},
		{"wpaxos", "wpaxos_relay_pending", 1024},
		{"wpaxos", "wpaxos_relay_pending", 4096},
	} {
		if testing.Short() && c.n > 256 {
			continue
		}
		limit := wpaxos.RelayCap(c.n, c.algo == "floodpaxos")
		peak := int64(0)
		for seed := int64(1); seed <= 6; seed++ {
			cfg, err := harness.Scenario{Algo: c.algo, Topo: harness.Topo{Kind: "expander", N: c.n, Deg: 8},
				Sched: "random", Fack: 4, Seed: seed}.Config()
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.New()
			cfg.Metrics = reg
			sim.Run(cfg)
			peak = max(peak, reg.Gauge(c.gauge).High())
		}
		t.Logf("%s expander:%d:8: relay cycle peak %d, capacity %d", c.algo, c.n, peak, limit)
		if peak > int64(limit) {
			t.Errorf("%s expander:%d:8: a relay cycle held %d responses, past its capacity %d", c.algo, c.n, peak, limit)
		}
		if 3*int64(limit) > 4*peak {
			t.Errorf("%s expander:%d:8: capacity %d is more than a third above the peak %d", c.algo, c.n, limit, peak)
		}
	}
}
