package sim

// This file implements schedule-coverage fingerprints: a streaming FNV-1a
// digest of exactly the decisions a Schedule records — the scheduler's
// declared Fack, the crash schedule, and every broadcast's finished
// delivery plan (unreliable-edge coin outcomes included) in broadcast
// order. Two runs with equal fingerprints followed the same execution
// prescription; a sweep cell's number of distinct fingerprints is
// therefore how many distinct delivery orderings its seeds actually
// exercised, which is what the campaign layer reports as coverage and uses
// to stop a saturated cell early.
//
// The digest is computable two ways, and both go through foldConfig and
// foldStep, so they agree by construction:
//
//   - Fingerprinter wraps a live scheduler and folds each plan as it is
//     produced — no schedule is materialized, so fingerprinting a sweep
//     run costs one small fixed-size struct instead of a recording;
//   - Schedule.Fingerprint folds an already-recorded schedule, and is also
//     the explorer's candidate-dedup key.
//
// Like recording, fingerprinting is an opt-in wrapper: sweeps that do not
// ask for coverage never construct one, so the hot path is untouched.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds one 64-bit word into an FNV-1a state, little-endian —
// byte-compatible with writing the word to hash/fnv's New64a, without the
// hash.Hash allocation.
func fnvWord(h uint64, v int64) uint64 {
	x := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h
}

// foldConfig starts a digest with the decisions the configuration owns and
// no scheduler wrapper sees flow by: the declared Fack and the crash
// schedule.
func foldConfig(fack int64, crashes []Crash) uint64 {
	h := fnvWord(fnvOffset64, fack)
	h = fnvWord(h, int64(len(crashes)))
	for _, c := range crashes {
		h = fnvWord(h, int64(c.Node))
		h = fnvWord(h, c.At)
	}
	return h
}

// foldStep folds one broadcast's finished plan, in the field order of a
// ScheduleStep. It is the only per-step fold, so the streaming digest and
// the digest of a recording cannot disagree.
func foldStep(h uint64, sender, seq int, now int64, nr int, recv []int64, ack int64) uint64 {
	h = fnvWord(h, int64(sender))
	h = fnvWord(h, int64(seq))
	h = fnvWord(h, now)
	h = fnvWord(h, int64(nr))
	for _, t := range recv {
		h = fnvWord(h, t)
	}
	return fnvWord(h, ack)
}

// Fingerprinter wraps a scheduler and folds every plan it produces into a
// running coverage digest. Install it as the outermost wrapper (outside
// Lossy, so the coin outcomes are folded exactly as a recording would
// capture them). The zero value is unusable; construct with
// NewFingerprinter, which folds the configuration-owned decisions (Fack,
// crash schedule) the wrapper cannot see flow by.
type Fingerprinter struct {
	Base  Scheduler
	h     uint64
	steps int64
}

// NewFingerprinter wraps base, seeding the digest with base's Fack and the
// execution's crash schedule (configuration, not scheduler decisions —
// exactly the fields the caller would copy into a Schedule).
func NewFingerprinter(base Scheduler, crashes []Crash) *Fingerprinter {
	if base == nil {
		panic("sim: NewFingerprinter needs a base scheduler")
	}
	return &Fingerprinter{Base: base, h: foldConfig(base.Fack(), crashes)}
}

// Fack implements Scheduler.
func (f *Fingerprinter) Fack() int64 { return f.Base.Fack() }

// Plan implements Scheduler: delegate, then fold the finished plan.
func (f *Fingerprinter) Plan(b Broadcast, p *Plan) {
	f.Base.Plan(b, p)
	f.h = foldStep(f.h, b.Sender, b.Seq, b.Now, len(b.Neighbors), p.Recv, p.Ack)
	f.steps++
}

// Sum returns the coverage digest of the plans folded so far (the step
// count is folded last, so Sum is callable repeatedly and mid-run).
func (f *Fingerprinter) Sum() uint64 { return fnvWord(f.h, f.steps) }

// SaltFingerprint folds an extra word into a finished coverage digest.
// The digest sees only scheduler-visible decisions; an execution that
// depends on its seed through other channels (a coin-flipping algorithm,
// a seed-built topology) must be distinguished per seed or coverage
// saturation would conflate genuinely different executions. The harness
// knows which scenarios those are and salts with the scenario seed.
func SaltFingerprint(fp uint64, salt int64) uint64 { return fnvWord(fp, salt) }

// Fingerprint returns the schedule's digest over every decision it holds —
// equal to the Sum of a Fingerprinter that watched the execution this
// schedule records. Two schedules with equal fingerprints are, for
// exploration purposes, the same execution prescription: the explorer
// deduplicates candidates by it.
func (s *Schedule) Fingerprint() uint64 {
	h := foldConfig(s.Fack, s.Crashes)
	for _, st := range s.Steps {
		h = foldStep(h, st.Sender, st.Seq, st.Now, st.NR, st.Recv, st.Ack)
	}
	return fnvWord(h, int64(len(s.Steps)))
}

var _ Scheduler = (*Fingerprinter)(nil)
