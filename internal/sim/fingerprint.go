package sim

// This file implements the schedule fingerprint: an FNV-1a digest of
// exactly the decisions a Schedule records — the scheduler's declared
// Fack, the crash schedule, and every broadcast's finished delivery plan
// (unreliable-edge coin outcomes included) in broadcast order. Two
// schedules with equal fingerprints are the same execution prescription,
// which is why the explorer deduplicates its candidates by it.

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

// foldConfig starts a digest with the decisions the configuration owns:
// the declared Fack and the crash schedule.
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
// ScheduleStep.
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

// Fingerprint returns the schedule's digest over every decision it holds.
// Two schedules with equal fingerprints are, for exploration purposes, the
// same execution prescription: the explorer deduplicates candidates by it.
func (s *Schedule) Fingerprint() uint64 {
	h := foldConfig(s.Fack, s.Crashes)
	for _, st := range s.Steps {
		h = foldStep(h, st.Sender, st.Seq, st.Now, st.NR, st.Recv, st.Ack)
	}
	return fnvWord(h, int64(len(s.Steps)))
}
