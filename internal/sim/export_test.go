package sim

import "github.com/absmac/absmac/internal/amac"

// ForcePhases makes e run every nonempty bucket array as a parallel phase
// of w workers, whatever its size, the number of Ps or the scheduler; w = 1
// keeps every bucket on the sequential loop, and 0 restores the default.
func ForcePhases(e *Engine, w int) { e.forcePhases = w }

// PhaseSafe wraps s so that the engine's own admission rule takes its runs
// as phases, as it does the package's schedulers. A test scheduler that
// logs plans qualifies: a phase calls Plan only from its replay, on the
// goroutine that runs drain.
func PhaseSafe(s Scheduler) Scheduler { return phaseSafeScheduler{s} }

type phaseSafeScheduler struct{ Scheduler }

func (phaseSafeScheduler) phaseSafe() bool { return true }

// PhasesRun returns how many parallel phases e has run since it was made.
func PhasesRun(e *Engine) int {
	if e.par == nil {
		return 0
	}
	return int(e.par.epoch)
}

// Views returns every node's amac.View (nodes must be amac.Inspectors).
func Views(e *Engine) []amac.View {
	vs := make([]amac.View, len(e.algs))
	for i, a := range e.algs {
		vs[i] = a.(amac.Inspector).Inspect()
	}
	return vs
}

// allDecided reports whether every node not marked crashed decided:
// consensus.Check's termination rule, which this package's tests cannot
// import.
func allDecided(r *Result) bool {
	for i, d := range r.Decided {
		if !d && !r.Crashed[i] {
			return false
		}
	}
	return true
}

// heldPastLen counts the slots of e's algs and inMsg arrays, between their
// length and their capacity, that still hold a node or a message.
func heldPastLen(e *Engine) (algs, msgs int) {
	for _, a := range e.algs[len(e.algs):cap(e.algs)] {
		if a != nil {
			algs++
		}
	}
	for _, m := range e.inMsg[len(e.inMsg):cap(e.inMsg)] {
		if m != nil {
			msgs++
		}
	}
	return algs, msgs
}

// QueueSpan exposes the ring size Reset chose for the current scheduler.
func (e *Engine) QueueSpan() int64 { return e.q.span }

// QueueCap sums the capacities of every bucket array the engine owns: it
// stays flat across warm runs unless a run appends behind stale entries.
func (e *Engine) QueueCap() int {
	n := 0
	for _, b := range e.q.buckets[:cap(e.q.buckets)] {
		n += cap(b.dels) + cap(b.acks)
	}
	return n
}
