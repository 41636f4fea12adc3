package sim

import "math/rand"

// Replay is a Scheduler that re-executes a recorded Schedule. As long as
// the execution asks for exactly the broadcasts the recording answered —
// same sender, sequence number, issue time and recipient shape — Replay
// hands back the recorded plans verbatim, which reproduces the original
// execution byte for byte (record→replay identity is pinned by
// harness tests).
//
// When the execution diverges from the recording — because a perturbation
// changed an earlier decision, a crash was moved, or the schedule was
// truncated — Replay switches permanently to a seeded fallback planner
// (uniform delivery times within Fack, unreliable-edge coins at
// Schedule.DeliverP, mirroring Random+Lossy) so the perturbed execution
// continues deterministically inside the model instead of dying on a stale
// absolute time. The first divergence is observable: DivergedAt reports
// the step index, and an optional Observer receives an EventDiverge.
//
// Replay carries run state (a cursor and the fallback rng): build one per
// execution with NewReplay, or re-arm one with Reset.
type Replay struct {
	s *Schedule
	// Observer, when non-nil, receives an EventDiverge at the first
	// divergence (wire it to the same trace recorder as Config.Observer to
	// see divergences inline with engine events).
	Observer func(Event)

	cursor     int
	diverged   bool
	divergedAt int
	rng        *rand.Rand
}

// NewReplay returns a replay scheduler for s. It panics on a structurally
// invalid schedule (see Schedule.Validate — callers assembling schedules
// from external files should Validate first and surface the error).
func NewReplay(s *Schedule) *Replay {
	r := new(Replay)
	r.Reset(s)
	return r
}

// Reset re-arms r to replay s from its first step, as NewReplay(s) would,
// but keeps the fallback rng, which the next divergence re-seeds in place.
func (r *Replay) Reset(s *Schedule) {
	if err := s.Validate(); err != nil {
		panic(err.Error())
	}
	r.s, r.cursor, r.diverged, r.divergedAt = s, 0, false, -1
}

// Fack implements Scheduler: replay re-declares the recorded bound.
func (r *Replay) Fack() int64 { return r.s.Fack }

// DivergedAt reports the step index at which the execution first left the
// recording (len(Steps) when it ran past the recorded horizon), or -1 for
// a byte-identical replay so far.
func (r *Replay) DivergedAt() int { return r.divergedAt }

// Diverged reports whether the execution left the recording.
func (r *Replay) Diverged() bool { return r.diverged }

// Plan implements Scheduler.
func (r *Replay) Plan(b Broadcast, p *Plan) {
	if !r.diverged {
		if r.cursor < len(r.s.Steps) {
			st := r.s.Steps[r.cursor]
			if r.matches(st, b, p) {
				copy(p.Recv, st.Recv)
				p.Ack = st.Ack
				r.cursor++
				return
			}
		}
		r.diverge(b)
	}
	r.fallback(b, p)
}

// matches reports whether the recorded step answers broadcast b: identity
// (sender, seq, issue time, recipient shape) plus timing validity relative
// to the step's own Now — a perturbed step whose times fell outside the
// model contract must not reach the engine's validator.
func (r *Replay) matches(st *ScheduleStep, b Broadcast, p *Plan) bool {
	if st.Sender != b.Sender || st.Seq != b.Seq || st.Now != b.Now {
		return false
	}
	if st.NR != len(b.Neighbors) || len(st.Recv) != len(p.Recv) {
		return false
	}
	if st.Ack <= st.Now || st.Ack > st.Now+r.s.Fack {
		return false
	}
	for i, t := range st.Recv {
		if t == NoDelivery {
			if i < st.NR {
				return false
			}
			continue
		}
		if t <= st.Now || t > st.Ack {
			return false
		}
	}
	return true
}

func (r *Replay) diverge(b Broadcast) {
	r.diverged = true
	r.divergedAt = r.cursor
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.s.FallbackSeed))
	} else {
		r.rng.Seed(r.s.FallbackSeed)
	}
	if r.Observer != nil {
		r.Observer(Event{Kind: EventDiverge, Time: b.Now, Node: b.Sender})
	}
}

// fallback plans one broadcast the recording no longer covers with the
// uniform planner and DeliverP coins — what Random under Lossy does, on
// one rng seeded by the schedule at the divergence so perturbed executions
// stay deterministic.
func (r *Replay) fallback(b Broadcast, p *Plan) {
	p.Ack = uniformTimes(r.rng, b.Now, r.s.Fack, p.Recv[:len(b.Neighbors)], false)
	flipUnreliable(r.rng, r.s.DeliverP, b, p)
}

var _ Scheduler = (*Replay)(nil)
