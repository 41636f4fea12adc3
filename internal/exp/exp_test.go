package exp

import (
	"fmt"
	"strings"
	"testing"
)

// The experiment drivers are the repository's deliverable (d): each one
// regenerates a paper result. These tests run every driver and require its
// shape check to pass — they are integration tests over the whole stack.

func checkExperiment(t *testing.T, e *Experiment) {
	t.Helper()
	if !e.OK {
		t.Fatalf("%s failed its shape check:\n%s", e.ID, e.Render())
	}
	out := e.Render()
	for _, want := range []string{e.ID, "paper claim", "PASS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("%s render missing %q:\n%s", e.ID, want, out)
		}
	}
	if len(e.Table.Rows) == 0 {
		t.Fatalf("%s produced no rows", e.ID)
	}
}

func TestE1(t *testing.T)  { checkExperiment(t, E1FLP()) }
func TestE2(t *testing.T)  { checkExperiment(t, E2Anonymous()) }
func TestE3(t *testing.T)  { checkExperiment(t, E3SizeKnowledge()) }
func TestE4(t *testing.T)  { checkExperiment(t, E4TimeLowerBound()) }
func TestE5(t *testing.T)  { checkExperiment(t, E5TwoPhase()) }
func TestE6(t *testing.T)  { checkExperiment(t, E6WPaxos()) }
func TestE7(t *testing.T)  { checkExperiment(t, E7FloodingBaseline()) }
func TestE8(t *testing.T)  { checkExperiment(t, E8TagGrowth()) }
func TestE9(t *testing.T)  { checkExperiment(t, E9AggregationAudit()) }
func TestE10(t *testing.T) { checkExperiment(t, E10UnknownParticipants()) }
func TestE11(t *testing.T) { checkExperiment(t, E11UnreliableLinks()) }
func TestE12(t *testing.T) { checkExperiment(t, E12Randomization()) }

func TestAllOrdered(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	all := All()
	if len(all) != 12 {
		t.Fatalf("All() returned %d experiments, want 12", len(all))
	}
	for i, e := range all {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Fatalf("experiment %d has id %q, want %q", i, e.ID, want)
		}
	}
}
