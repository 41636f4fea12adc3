package consensus

import (
	"strings"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
)

func result(n int) *sim.Result {
	return &sim.Result{
		Decided:    make([]bool, n),
		Decision:   make([]amac.Value, n),
		DecideTime: make([]int64, n),
		Crashed:    make([]bool, n),
	}
}

func TestCheckAllGood(t *testing.T) {
	res := result(3)
	for i := 0; i < 3; i++ {
		res.Decided[i] = true
		res.Decision[i] = 1
	}
	rep := Check([]amac.Value{0, 1, 1}, res)
	if !rep.OK() {
		t.Fatalf("clean run flagged: %v", rep.Errors)
	}
	if rep.Value != 1 || !rep.SomeoneDecided {
		t.Fatalf("report %+v", rep)
	}
}

func TestCheckAgreementViolation(t *testing.T) {
	res := result(2)
	res.Decided[0], res.Decision[0] = true, 0
	res.Decided[1], res.Decision[1] = true, 1
	rep := Check([]amac.Value{0, 1}, res)
	if rep.Agreement {
		t.Fatal("disagreement not flagged")
	}
	if rep.OK() {
		t.Fatal("OK despite disagreement")
	}
}

func TestCheckValidityViolation(t *testing.T) {
	res := result(1)
	res.Decided[0], res.Decision[0] = true, 1
	rep := Check([]amac.Value{0}, res)
	if rep.Validity {
		t.Fatal("invalid decision not flagged")
	}
}

func TestCheckTermination(t *testing.T) {
	res := result(2)
	res.Decided[0], res.Decision[0] = true, 0
	rep := Check([]amac.Value{0, 0}, res)
	if rep.Termination {
		t.Fatal("missing decision not flagged")
	}
	// A crashed node is exempt.
	res.Crashed[1] = true
	rep = Check([]amac.Value{0, 0}, res)
	if !rep.Termination {
		t.Fatalf("crashed node counted against termination: %v", rep.Errors)
	}
}

// TestCheckJudgesSurvivorsOnly pins the crash-failure semantics: a node
// that decided a conflicting value and then crashed neither violates
// agreement nor contributes to the survivor latency.
func TestCheckJudgesSurvivorsOnly(t *testing.T) {
	res := result(3)
	res.Decided[0], res.Decision[0], res.DecideTime[0] = true, 0, 50
	res.Crashed[0] = true // decided 0 at t=50, then crashed
	res.Decided[1], res.Decision[1], res.DecideTime[1] = true, 1, 10
	res.Decided[2], res.Decision[2], res.DecideTime[2] = true, 1, 20
	res.MaxDecideTime = 50
	rep := Check([]amac.Value{0, 1, 1}, res)
	if !rep.OK() {
		t.Fatalf("survivor-consistent run flagged: %v", rep.Errors)
	}
	if rep.Value != 1 {
		t.Fatalf("agreed value %d, want the survivors' 1", rep.Value)
	}
	if rep.Crashed != 1 {
		t.Fatalf("crashed count %d, want 1", rep.Crashed)
	}
	if rep.SurvivorDecideTime != 20 {
		t.Fatalf("survivor decide time %d, want 20 (crashed decider excluded)", rep.SurvivorDecideTime)
	}

	// An invalid decision by a crashed node is exempt too.
	res = result(2)
	res.Decided[0], res.Decision[0] = true, 1 // 1 was never proposed
	res.Crashed[0] = true
	res.Decided[1], res.Decision[1], res.DecideTime[1] = true, 0, 5
	rep = Check([]amac.Value{0, 0}, res)
	if !rep.OK() {
		t.Fatalf("crashed node's invalid decision flagged: %v", rep.Errors)
	}

	// No surviving decider: the sentinel must come back unchanged.
	res = result(1)
	res.Decided[0], res.Crashed[0] = true, true
	rep = Check([]amac.Value{0}, res)
	if rep.SomeoneDecided || rep.SurvivorDecideTime != -1 {
		t.Fatalf("crashed-only deciders leaked into survivor stats: %+v", rep)
	}
}

func TestCheckSubstrateViolationsPropagate(t *testing.T) {
	res := result(1)
	res.Decided[0] = true
	res.Violations = append(res.Violations, sim.Violation{Time: 3, Node: 0, Desc: "boom"})
	rep := Check([]amac.Value{0}, res)
	if rep.OK() {
		t.Fatal("substrate violation ignored")
	}
	if !strings.Contains(strings.Join(rep.Errors, ";"), "boom") {
		t.Fatalf("violation text lost: %v", rep.Errors)
	}
}

func TestCheckSizeMismatch(t *testing.T) {
	rep := Check([]amac.Value{0}, result(2))
	if rep.OK() {
		t.Fatal("size mismatch not flagged")
	}
}

// idReader reads its id once at start; the audit must count it.
type idReader struct{}

func (a *idReader) Start(api amac.API)     { _ = api.ID() }
func (a *idReader) OnReceive(amac.Message) {}
func (a *idReader) OnAck(m amac.Message)   {}

// idIgnorer never touches ids.
type idIgnorer struct{}

func (a *idIgnorer) Start(api amac.API)     {}
func (a *idIgnorer) OnReceive(amac.Message) {}
func (a *idIgnorer) OnAck(m amac.Message)   {}

func TestAnonymityAudit(t *testing.T) {
	reader, readerCount := AnonymityAudit(func(amac.NodeConfig) amac.Algorithm { return &idReader{} })
	sim.Run(sim.Config{
		Graph:     graph.Clique(3),
		Inputs:    make([]amac.Value, 3),
		Factory:   reader,
		Scheduler: sim.Synchronous{},
	})
	if *readerCount != 3 {
		t.Fatalf("id reads counted %d, want 3", *readerCount)
	}

	ignorer, ignorerCount := AnonymityAudit(func(amac.NodeConfig) amac.Algorithm { return &idIgnorer{} })
	sim.Run(sim.Config{
		Graph:     graph.Clique(3),
		Inputs:    make([]amac.Value, 3),
		Factory:   ignorer,
		Scheduler: sim.Synchronous{},
	})
	if *ignorerCount != 0 {
		t.Fatalf("anonymous algorithm counted %d id reads", *ignorerCount)
	}
}

func TestAnonymityAuditHidesConstructorID(t *testing.T) {
	var sawIDs []amac.NodeID
	f, _ := AnonymityAudit(func(cfg amac.NodeConfig) amac.Algorithm {
		sawIDs = append(sawIDs, cfg.ID)
		return &idIgnorer{}
	})
	sim.Run(sim.Config{
		Graph:     graph.Clique(2),
		Inputs:    make([]amac.Value, 2),
		Factory:   f,
		Scheduler: sim.Synchronous{},
	})
	for _, id := range sawIDs {
		if id != amac.NoID {
			t.Fatalf("constructor saw real id %d", id)
		}
	}
}
