package explore

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/harness"
)

// livelockCell never decides and never quiesces: wPAXOS on ring:12 with a
// seeded minority crashed keeps retransmitting until the event cap, so
// every execution of it reports exactly the cap it ran under.
func livelockCell() harness.Scenario {
	return harness.Scenario{
		Algo: "wpaxos", Topo: harness.Topo{Kind: "ring", N: 12},
		Sched: "random", Fack: 2, Seed: 1, Crashes: "minorityrand",
	}
}

// TestScenarioCapReachesEveryReplay pins that the cap set on a scenario
// (or grid) is the one every explore entry point runs under when its
// options leave the cap alone: a campaign's finding and artifact,
// Explore's base recording, and Shrink's artifact.
func TestScenarioCapReachesEveryReplay(t *testing.T) {
	const maxEvents = 20_000
	sc := livelockCell()
	sc.MaxEvents = maxEvents

	camp, err := Campaign(harness.Grid{
		Algos: []string{sc.Algo}, Topos: []harness.Topo{sc.Topo}, Scheds: []string{sc.Sched},
		Facks: []int64{sc.Fack}, Crashes: []string{sc.Crashes}, Seeds: []int64{sc.Seed},
		MaxEvents: maxEvents,
	}, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Findings) != 1 {
		t.Fatalf("campaign found %d counterexamples, want 1", len(camp.Findings))
	}
	if f := camp.Findings[0]; f.Violation.Events != maxEvents || f.Artifact.MaxEvents != maxEvents {
		t.Fatalf("campaign finding ran %d events, artifact cap %d; want both %d",
			f.Violation.Events, f.Artifact.MaxEvents, maxEvents)
	}
	if c := camp.Cells[0]; c.MaxEvents != maxEvents {
		t.Fatalf("campaign cell records cap %d, want %d", c.MaxEvents, maxEvents)
	}

	rep, err := Explore(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Base == nil || rep.Base.Quiescent || rep.Base.Events != maxEvents {
		t.Fatalf("Explore base violation %+v, want a cutoff at %d events", rep.Base, maxEvents)
	}

	res, err := Shrink(sc, camp.Findings[0].Artifact.Schedule, consensus.KindNonTermination, ShrinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a := res.Artifact; a.MaxEvents != maxEvents || a.Violation.Events != maxEvents {
		t.Fatalf("shrunk artifact cap %d, %d events; want both %d", a.MaxEvents, a.Violation.Events, maxEvents)
	}
}

// TestArtifactRejectsNegativeCap: an artifact whose max_events is below
// zero does not decode, so it can never replay at a cap other than the one
// it records.
func TestArtifactRejectsNegativeCap(t *testing.T) {
	sc := harness.Scenario{Algo: "twophase", Topo: harness.Topo{Kind: "clique", N: 3}, Sched: "random", Fack: 2, Seed: 1}
	_, sched, err := sc.RunRecorded()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(&Artifact{Format: ArtifactFormat, Scenario: sc, MaxEvents: -1, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "max_events") {
		t.Fatalf("Decode: error %v, want one naming max_events", err)
	}
}
