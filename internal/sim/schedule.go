package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
)

// This file implements schedule recording: capturing every nondeterministic
// decision of an execution into a compact, JSON-serializable Schedule that
// can be replayed byte-identically (replay.go) or perturbed into nearby
// executions (the schedule-space explorer in internal/explore).
//
// All nondeterminism in the model flows through two channels — the
// scheduler's per-broadcast delivery plan (which, for Lossy-wrapped
// schedulers, already embeds the unreliable-edge coin outcomes as
// NoDelivery-or-time slots) and the configured crash times. A Schedule
// therefore records the finished plan of every broadcast, in broadcast
// order, plus the crash schedule: given the same non-scheduler
// configuration, those decisions determine the execution completely.
//
// Recording is an opt-in scheduler wrapper (ScheduleRecorder), so the
// sweep hot path pays nothing when recording is off.

// ScheduleStep is one recorded broadcast decision: the delivery plan the
// scheduler produced for the NR reliable and len(Recv)-NR unreliable
// recipients of sender's Seq-th broadcast, issued at time Now. Recv is
// positional exactly as in Plan; NoDelivery marks an unreliable slot the
// scheduler (or a perturbation) declined.
type ScheduleStep struct {
	Sender int     `json:"sender"`
	Seq    int     `json:"seq"`
	Now    int64   `json:"now"`
	NR     int     `json:"nr"`
	Recv   []int64 `json:"recv"`
	Ack    int64   `json:"ack"`
}

// Schedule is the complete nondeterminism of one execution: the recorded
// plan of every broadcast plus the crash schedule, with the scheduler's
// declared Fack and the parameters a Replay needs to extend a perturbed
// execution past its recorded horizon (FallbackSeed, DeliverP).
type Schedule struct {
	// Fack is the delivery bound the recorded scheduler declared; Replay
	// re-declares it.
	Fack int64 `json:"fack"`
	// DeliverP is the unreliable-edge delivery probability Replay's
	// fallback planner uses for broadcasts past the recorded horizon
	// (meaningful only in dual-graph configurations).
	DeliverP float64 `json:"deliver_p,omitempty"`
	// FallbackSeed seeds Replay's fallback planner, keeping perturbed
	// executions deterministic after they diverge from the recording.
	FallbackSeed int64 `json:"fallback_seed"`
	// Crashes is the execution's crash schedule. Replayers must install it
	// as Config.Crashes (harness.ReplayRunner does).
	Crashes []Crash `json:"crashes,omitempty"`
	// Steps are the recorded broadcast decisions, in broadcast order. A
	// step may be shared with the schedule this one was cloned from (or
	// with its clones): write a step only through the perturbation ops,
	// or by installing a new step pointer.
	Steps []*ScheduleStep `json:"steps"`
}

// ScheduleRecorder wraps a scheduler and records every plan it produces
// into S. Install it as the outermost wrapper (outside Lossy, so the coin
// outcomes are captured in the recorded slots). The recorder is the only
// cost of recording: one step object plus one Recv copy per broadcast,
// nothing on the delivery path.
type ScheduleRecorder struct {
	Base Scheduler
	S    *Schedule
}

// RecordSchedule wraps base in a recorder with a fresh Schedule carrying
// base's Fack. The caller fills in Crashes, DeliverP and FallbackSeed —
// they are configuration, not scheduler decisions, so the recorder cannot
// see them.
func RecordSchedule(base Scheduler) *ScheduleRecorder {
	if base == nil {
		panic("sim: RecordSchedule needs a base scheduler")
	}
	return &ScheduleRecorder{Base: base, S: &Schedule{Fack: base.Fack()}}
}

// Fack implements Scheduler.
func (r *ScheduleRecorder) Fack() int64 { return r.Base.Fack() }

// Plan implements Scheduler: delegate, then record the finished plan.
func (r *ScheduleRecorder) Plan(b Broadcast, p *Plan) {
	r.Base.Plan(b, p)
	r.S.Steps = append(r.S.Steps, &ScheduleStep{
		Sender: b.Sender,
		Seq:    b.Seq,
		Now:    b.Now,
		NR:     len(b.Neighbors),
		Recv:   append([]int64(nil), p.Recv...),
		Ack:    p.Ack,
	})
}

// Clone returns a copy that shares every step with the original: it
// copies the crashes and one pointer per step, not the steps' slots.
// Perturbation searches clone before mutating; an op that writes a step
// first replaces it with a private copy, so mutating a clone through the
// ops never touches the original. Code that edits a step by hand must
// install a new step pointer instead of writing through the shared one.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{Fack: s.Fack, DeliverP: s.DeliverP, FallbackSeed: s.FallbackSeed}
	if s.Crashes != nil {
		c.Crashes = append([]Crash(nil), s.Crashes...)
	}
	c.Steps = make([]*ScheduleStep, len(s.Steps))
	copy(c.Steps, s.Steps)
	return c
}

// own replaces step k with a private copy (the step and its Recv) and
// returns it. Every op that writes a step calls it after its refusal
// checks, so a refused op allocates nothing and an applied one never
// writes a step another schedule shares.
func (s *Schedule) own(k int) *ScheduleStep {
	st := *s.Steps[k]
	st.Recv = slices.Clone(st.Recv)
	s.Steps[k] = &st
	return &st
}

// Deliveries counts the delivered slots across all steps (reliable slots
// plus unreliable slots not left at NoDelivery) — the shrinker's measure of
// how much message traffic a schedule explains.
func (s *Schedule) Deliveries() int {
	n := 0
	for _, st := range s.Steps {
		for _, t := range st.Recv {
			if t != NoDelivery {
				n++
			}
		}
	}
	return n
}

// --- perturbations ---
//
// Each perturbation mutates the schedule in place and reports whether it
// applied; one that writes a step writes its own copy of it (own). A
// perturbation that applied leaves the mutated step valid relative to its
// own recorded Now (deliveries in (Now, Now+Fack], none after the ack), so
// a replay that reaches the step at the recorded time executes it; if
// earlier perturbations shifted time, Replay detects the mismatch and
// switches to its fallback planner instead of handing the engine an
// invalid plan.

// stepOK reports whether step index k is addressable.
func (s *Schedule) stepOK(k int) bool { return k >= 0 && k < len(s.Steps) }

// SwapRecv swaps the delivery times of slots i and j of step k — the
// classic "deliver to these two recipients in the opposite order"
// perturbation. It refuses swaps that would leave a reliable slot at
// NoDelivery.
func (s *Schedule) SwapRecv(k, i, j int) bool {
	if !s.stepOK(k) || i == j {
		return false
	}
	st := s.Steps[k]
	if i < 0 || j < 0 || i >= len(st.Recv) || j >= len(st.Recv) {
		return false
	}
	if (i < st.NR && st.Recv[j] == NoDelivery) || (j < st.NR && st.Recv[i] == NoDelivery) {
		return false
	}
	if st.Recv[i] == st.Recv[j] {
		return false
	}
	st = s.own(k)
	st.Recv[i], st.Recv[j] = st.Recv[j], st.Recv[i]
	return true
}

// JitterStep redraws every delivered slot of step k and its ack with the
// uniform planner (uniformTimes), seeded — the "same coin outcomes,
// different timing" perturbation. Undelivered slots stay undelivered.
// The draws are those of rand.New(rand.NewSource(seed)), taken from a
// pooled source re-seeded per call.
func (s *Schedule) JitterStep(k int, seed int64) bool {
	if !s.stepOK(k) {
		return false
	}
	if !slices.ContainsFunc(s.Steps[k].Recv, func(t int64) bool { return t != NoDelivery }) {
		return false
	}
	st := s.own(k)
	rng := jitterRands.Get().(*rand.Rand)
	rng.Seed(seed)
	st.Ack = uniformTimes(rng, st.Now, s.Fack, st.Recv, true)
	jitterRands.Put(rng)
	return true
}

// jitterRands holds JitterStep's sources: a math/rand source is ~5 KB, and
// the explorer jitters once per few candidates.
var jitterRands = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// FlipCoin toggles unreliable slot `slot` of step k: a delivered slot
// becomes NoDelivery, an undelivered one delivers at the step's ack time
// (always valid: the ack is within the window and no delivery follows it).
// Reliable slots cannot be flipped.
func (s *Schedule) FlipCoin(k, slot int) bool {
	if !s.stepOK(k) {
		return false
	}
	if slot < s.Steps[k].NR || slot >= len(s.Steps[k].Recv) {
		return false
	}
	st := s.own(k)
	if st.Recv[slot] == NoDelivery {
		st.Recv[slot] = st.Ack
	} else {
		st.Recv[slot] = NoDelivery
	}
	return true
}

// ShiftCrash moves crash i to time at (>= 0).
func (s *Schedule) ShiftCrash(i int, at int64) bool {
	if i < 0 || i >= len(s.Crashes) || at < 0 || s.Crashes[i].At == at {
		return false
	}
	s.Crashes[i].At = at
	return true
}

// DropCrash removes crash i.
func (s *Schedule) DropCrash(i int) bool {
	if i < 0 || i >= len(s.Crashes) {
		return false
	}
	s.Crashes = append(s.Crashes[:i], s.Crashes[i+1:]...)
	return true
}

// Truncate cuts the recorded steps to the first k; a replay executes the
// retained prefix and extends the run with its fallback planner.
func (s *Schedule) Truncate(k int) bool {
	if k < 0 || k >= len(s.Steps) {
		return false
	}
	s.Steps = s.Steps[:k]
	return true
}

// Validate performs the structural checks a replayer relies on: positive
// Fack, no nil step, sane slot counts, crash times non-negative and
// DeliverP in [0,1].
// Per-step timing is checked live by Replay (a step whose times no longer
// fit the replayed execution is a divergence, not an error).
func (s *Schedule) Validate() error {
	if s.Fack <= 0 {
		return fmt.Errorf("sim: schedule declares Fack=%d, need > 0", s.Fack)
	}
	if s.DeliverP < 0 || s.DeliverP > 1 {
		return fmt.Errorf("sim: schedule delivery probability %v outside [0,1]", s.DeliverP)
	}
	for i, c := range s.Crashes {
		if c.At < 0 {
			return fmt.Errorf("sim: schedule crash %d at negative time %d", i, c.At)
		}
	}
	for i, st := range s.Steps {
		if st == nil {
			return fmt.Errorf("sim: schedule step %d is null", i)
		}
		if st.NR < 0 || st.NR > len(st.Recv) {
			return fmt.Errorf("sim: schedule step %d has %d reliable slots of %d", i, st.NR, len(st.Recv))
		}
		if st.Sender < 0 || st.Seq < 0 || st.Now < 0 {
			return fmt.Errorf("sim: schedule step %d has negative sender/seq/now", i)
		}
	}
	return nil
}

var _ Scheduler = (*ScheduleRecorder)(nil)
