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

// Fingerprint returns the schedule's digest over every decision it holds:
// the declared Fack, the crash schedule, then each step in the field order
// of a ScheduleStep, then the step count. Two schedules with equal
// fingerprints are, for exploration purposes, the same execution
// prescription: the explorer deduplicates candidates by it.
func (s *Schedule) Fingerprint() uint64 {
	h := fnvWord(fnvOffset64, s.Fack)
	h = fnvWord(h, int64(len(s.Crashes)))
	for _, c := range s.Crashes {
		h = fnvWord(h, int64(c.Node))
		h = fnvWord(h, c.At)
	}
	for _, st := range s.Steps {
		h = fnvWord(h, int64(st.Sender))
		h = fnvWord(h, int64(st.Seq))
		h = fnvWord(h, st.Now)
		h = fnvWord(h, int64(st.NR))
		for _, t := range st.Recv {
			h = fnvWord(h, t)
		}
		h = fnvWord(h, st.Ack)
	}
	return fnvWord(h, int64(len(s.Steps)))
}
