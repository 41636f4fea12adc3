package consensus

import "github.com/absmac/absmac/internal/sim"

// This file classifies checked executions into violations. Sweeps
// (internal/harness) classify each seed's outcome to decide what to flag,
// and the explorer and minimizer (internal/explore) preserve the violation
// kind across perturbation and shrinking; consensus sits below both.

// Violation kinds.
const (
	KindAgreement      = "agreement"
	KindValidity       = "validity"
	KindNonTermination = "non-termination"
	KindSubstrate      = "substrate"
)

// verdicts is the severity order, most severe first: each kind with the
// failed property that makes a run that kind. Classify returns the first
// entry that failed and Severity ranks a kind by its index, so this table
// is the one place the order is written. The last entry catches a run
// whose three properties held but whose substrate reported errors.
var verdicts = []struct {
	kind   string
	failed func(*Report) bool
}{
	{KindAgreement, func(r *Report) bool { return !r.Agreement }},
	{KindValidity, func(r *Report) bool { return !r.Validity }},
	{KindNonTermination, func(r *Report) bool { return !r.Termination }},
	{KindSubstrate, func(r *Report) bool { return len(r.Errors) > 0 }},
}

// Severity ranks a violation kind, most severe first (0 = agreement).
// explore.Counterexample, the one counterexample path of explore mode and
// campaigns, carries forward the violation it ranks first. Unknown kinds
// rank below every known one.
func Severity(kind string) int {
	for i, v := range verdicts {
		if v.kind == kind {
			return i
		}
	}
	return len(verdicts)
}

// Violation describes one property breach found in an execution.
type Violation struct {
	// Kind is the most severe violated property (see Severity).
	Kind string `json:"kind"`
	// Errors lists every property error the checker reported.
	Errors []string `json:"errors,omitempty"`
	// Quiescent distinguishes a stall (the execution drained its event
	// queue with undecided survivors) from a potential livelock cut off by
	// the event cap. Meaningful for non-termination findings.
	Quiescent bool `json:"quiescent"`
	// Events is the execution's processed-event count.
	Events int `json:"events"`
}

// Classify reduces a checked execution to its violation, or nil exactly
// when rep.OK(): agreement, validity and termination held with a clean
// substrate.
func Classify(rep *Report, res *sim.Result) *Violation {
	for _, v := range verdicts {
		if v.failed(rep) {
			return &Violation{
				Kind:      v.kind,
				Errors:    rep.Errors,
				Quiescent: res.Quiescent,
				Events:    res.Events,
			}
		}
	}
	return nil
}
