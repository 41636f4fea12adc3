package explore

import (
	"testing"

	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/sim"
)

// replayCell is bench's explore_replay cell at scenario seed 1000: wpaxos
// on grid:5x5 under the chords overlay, its leader crashing mid-broadcast.
// The cap is the engine default, written out.
func replayCell() harness.Scenario {
	return harness.Scenario{
		Algo: "wpaxos", Topo: harness.Topo{Kind: "grid", Rows: 5, Cols: 5},
		Sched: "random", Fack: 4, Seed: 1000,
		Crashes: "midbroadcast", Overlay: "chords", MaxEvents: 5_000_000,
	}
}

// TestExploreCandidateStream pins the generator's candidate stream on the
// replay cell without replaying anything: the fingerprints of the 1024
// candidates, folded in order, and the produced/deduped counts are
// constants, and generating them leaves the base recording as it was.
// Candidates share steps with the base and with each other (Clone), so a
// perturbation that wrote a shared step would move the digest or the
// base's fingerprint.
func TestExploreCandidateStream(t *testing.T) {
	_, base, err := replayCell().RunRecorded()
	if err != nil {
		t.Fatal(err)
	}
	before := base.Fingerprint()
	gen := newGenerator(base, Options{Budget: 1024, Workers: 1, Seed: 1}.withDefaults())
	var digest uint64
	gen.run(func(c candidate) { digest = sim.SaltFingerprint(digest, int64(c.s.Fingerprint())) })
	const wantDigest, wantProduced, wantDeduped = 0x5b23243e6de3d0a5, 1024, 14
	if digest != wantDigest || gen.produced != wantProduced || gen.deduped != wantDeduped {
		t.Fatalf("candidate stream: digest %#x, %d produced, %d deduped; want %#x, %d, %d",
			digest, gen.produced, gen.deduped, uint64(wantDigest), wantProduced, wantDeduped)
	}
	if len(base.Steps) != 479 || base.Fingerprint() != before {
		t.Fatalf("generation changed the base recording (%d steps)", len(base.Steps))
	}
}
