package explore

import (
	"fmt"
	"sync"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/sim"
)

// This file implements the counterexample minimizer: a deterministic
// greedy delta-debugger that reduces a violating schedule while preserving
// its violation kind. Reduction passes, largest-grain first:
//
//   - topology shrink: re-record the scenario on a smaller instance of the
//     same family (ring:9 → ring:8 → …) and restart there when the same
//     violation reproduces;
//   - crash dropping: remove scheduled crashes one at a time;
//   - overlay-delivery pruning: ddmin-style chunked removal of delivered
//     unreliable-edge slots (flipping their coins to NoDelivery);
//   - step truncation: cut the recorded suffix and let the replay's seeded
//     fallback planner finish the run.
//
// Every candidate is evaluated by replay-with-re-recording
// (harness.ReplayRunner.RunRecorded): the candidate mutation may derail
// the execution mid-run, but the re-recording closes it back into a
// complete schedule in which every broadcast is a recorded step. A
// candidate is accepted only when its closed form still violates with the
// same kind AND strictly lowers the cost metric, so the loop terminates
// and the final artifact always replays byte-identically with zero
// divergence.
//
// Shrinking is parallel but width-invariant: each pass generates an
// ordered candidate batch from the current schedule, the batch evaluates
// speculatively on the shared worker pool, and acceptance scans the
// results in candidate order, taking the FIRST improving candidate — so
// the accepted sequence, the reported attempt count (the serial cost:
// candidates up to and including the accepted one) and the final artifact
// are byte-identical at every pool width. The determinism test pins
// parallel Shrink against its width-1 self on the committed artifact.

// cost is the minimizer's size metric: recorded steps plus delivered
// slots, with crashes weighted heavily (dropping adversity explains more
// than dropping traffic).
func cost(s *sim.Schedule) int {
	return len(s.Steps) + s.Deliveries() + 8*len(s.Crashes)
}

// ShrinkOptions tunes a minimization.
type ShrinkOptions struct {
	// MaxEvents, when > 0, overrides the scenario's event cap for every
	// candidate replay and for the artifact; 0 keeps Scenario.MaxEvents.
	MaxEvents int
	// Workers is the speculative-evaluation pool width (<= 0 means
	// GOMAXPROCS). The result is identical at every width.
	Workers int
}

// ShrinkResult reports a minimization.
type ShrinkResult struct {
	// Artifact is the minimized counterexample: scenario (possibly on a
	// smaller topology than the input's), closed schedule, violation.
	Artifact *Artifact `json:"artifact"`
	// FromSteps/FromDeliveries/FromCrashes size the input schedule;
	// the artifact's schedule carries the minimized sizes.
	FromSteps      int `json:"from_steps"`
	FromDeliveries int `json:"from_deliveries"`
	FromCrashes    int `json:"from_crashes"`
	// Attempts counts candidate evaluations charged by the deterministic
	// accounting (speculative evaluations past an accepted candidate are
	// free, so the count is pool-width-invariant).
	Attempts int `json:"attempts"`
}

// Reduced reports whether minimization made the schedule smaller.
func (r *ShrinkResult) Reduced() bool {
	s := r.Artifact.Schedule
	return len(s.Steps) < r.FromSteps || s.Deliveries() < r.FromDeliveries || len(s.Crashes) < r.FromCrashes
}

// shrinkAttemptCap bounds the minimizer's candidate replays; the greedy
// loop normally converges far below it.
const shrinkAttemptCap = 4096

// shrinker carries the minimization state.
type shrinker struct {
	sc       harness.Scenario
	pool     *evalPool
	kind     string
	cur      *sim.Schedule
	curCost  int
	attempts int
}

// Shrink minimizes a violating schedule for the scenario down to a smaller
// schedule exhibiting the same violation kind. It errors when the input
// schedule does not itself reproduce a violation of kind.
func Shrink(sc harness.Scenario, sched *sim.Schedule, kind string, opts ShrinkOptions) (*ShrinkResult, error) {
	if opts.MaxEvents > 0 {
		sc.MaxEvents = opts.MaxEvents
	}
	p := newEvalPool(opts.Workers)
	defer p.close()
	return shrinkOn(p, sc, sched, kind)
}

// shrinkOn runs one minimization on a caller-owned pool (the campaign
// entry point) under the scenario's own event cap.
func shrinkOn(p *evalPool, sc harness.Scenario, sched *sim.Schedule, kind string) (*ShrinkResult, error) {
	sh := &shrinker{sc: sc, pool: p, kind: kind}

	// Close and verify the input: the minimized artifact must start from a
	// reproducing counterexample, not a hope.
	sh.curCost = int(^uint(0) >> 1) // any closed cost accepts
	if idx, err := sh.round([]*sim.Schedule{sched}); err != nil {
		return nil, err
	} else if idx < 0 {
		return nil, fmt.Errorf("explore: schedule does not reproduce a %s violation on %s/%s, nothing to shrink", kind, sc.Algo, sc.Topo)
	}
	res := &ShrinkResult{FromSteps: len(sched.Steps), FromDeliveries: sched.Deliveries(), FromCrashes: len(sched.Crashes)}

	sh.shrinkTopology()
	for sh.attempts < shrinkAttemptCap {
		improved, err := sh.dropCrashes()
		if err != nil {
			return nil, err
		}
		if more, err := sh.pruneDeliveries(); err != nil {
			return nil, err
		} else {
			improved = more || improved
		}
		if more, err := sh.truncateSteps(); err != nil {
			return nil, err
		} else {
			improved = more || improved
		}
		if !improved {
			break
		}
	}

	// Final verification replay (strictness belt-and-braces: the accepted
	// schedule is closed, so it must replay without divergence).
	var (
		v          *consensus.Violation
		divergedAt int
		err        error
	)
	p.runOne(func(rs *runnerSet) { _, v, divergedAt, err = rs.rerecord(sh.sc, sh.cur) })
	if err != nil {
		return nil, err
	}
	if v == nil || v.Kind != sh.kind {
		return nil, fmt.Errorf("explore: minimized schedule failed re-verification (got %v, want %s)", v, sh.kind)
	}
	if divergedAt >= 0 {
		return nil, fmt.Errorf("explore: minimized schedule diverged at step %d on its verification replay", divergedAt)
	}
	res.Artifact = &Artifact{
		Format:    ArtifactFormat,
		Scenario:  sh.sc,
		MaxEvents: sh.sc.MaxEvents,
		Schedule:  sh.cur,
		Violation: v,
	}
	res.Attempts = sh.attempts
	return res, nil
}

// evalOut is one candidate's speculative evaluation.
type evalOut struct {
	closed *sim.Schedule
	ok     bool // violation of the target kind reproduced
	cost   int
	err    error
}

// round evaluates an ordered candidate batch and accepts the first
// candidate whose closed form preserves the violation at a strictly lower
// cost, installing it as the new current schedule. It returns the accepted
// index, or -1 when no candidate improved. All candidates evaluate
// concurrently on the pool, but the scan is in candidate order and the
// attempt accounting charges only the serial prefix (accepted index + 1,
// or the whole batch on rejection) — both are pool-width-invariant, so
// shrinking is deterministic at any parallelism.
func (s *shrinker) round(cands []*sim.Schedule) (int, error) {
	// Honor the attempt cap inside the batch, not just between batches: a
	// chunk=1 pruning round can carry hundreds of candidates, and the cap
	// is a bound on replays actually charged. Prefix truncation keeps the
	// accounting width-invariant.
	if rem := shrinkAttemptCap - s.attempts; len(cands) > rem {
		if rem <= 0 {
			return -1, nil
		}
		cands = cands[:rem]
	}
	if len(cands) == 0 {
		return -1, nil
	}
	outs := make([]evalOut, len(cands))
	var wg sync.WaitGroup
	sc, kind := s.sc, s.kind
	for i := range cands {
		i, cand := i, cands[i]
		wg.Add(1)
		s.pool.submit(func(rs *runnerSet) {
			defer wg.Done()
			closed, v, _, err := rs.rerecord(sc, cand)
			if err != nil {
				outs[i].err = err
				return
			}
			if v != nil && v.Kind == kind {
				outs[i] = evalOut{closed: closed, ok: true, cost: cost(closed)}
			}
		})
	}
	wg.Wait()
	for i := range outs {
		if outs[i].err != nil {
			s.attempts += i + 1
			return -1, outs[i].err
		}
		if outs[i].ok && outs[i].cost < s.curCost {
			s.attempts += i + 1
			s.cur = outs[i].closed
			s.curCost = outs[i].cost
			return i, nil
		}
	}
	s.attempts += len(cands)
	return -1, nil
}

// shrinkTopology retries the whole scenario on smaller instances of its
// topology family (harness.Topo.Smaller), re-recording from scratch (the
// current schedule cannot transfer across node counts). It restarts the
// minimization state on the smallest instance that still reproduces the
// violation. Re-recording is inherently serial — each size gates the next
// — so this pass does not use the pool.
func (s *shrinker) shrinkTopology() {
	for s.attempts < shrinkAttemptCap {
		t, ok := s.sc.Topo.Smaller()
		if !ok {
			return
		}
		sc2 := s.sc
		sc2.Topo = t
		s.attempts++
		out2, sched2, err := sc2.RunRecorded()
		if err != nil {
			return
		}
		v := out2.Violation()
		if v == nil || v.Kind != s.kind {
			return
		}
		// sched2 is a complete recording of sc2's run, so it is already
		// closed: adopt it directly as the new minimization state. Workers
		// build runners for the smaller scenario lazily on the next round.
		s.sc, s.cur, s.curCost = sc2, sched2, cost(sched2)
	}
}

// dropCrashes tries removing each scheduled crash, highest index first,
// restarting the batch on the reshaped schedule after every acceptance.
func (s *shrinker) dropCrashes() (bool, error) {
	improved := false
	for s.attempts < shrinkAttemptCap && len(s.cur.Crashes) > 0 {
		cands := make([]*sim.Schedule, 0, len(s.cur.Crashes))
		for i := len(s.cur.Crashes) - 1; i >= 0; i-- {
			if cand := s.cur.Clone(); cand.DropCrash(i) {
				cands = append(cands, cand)
			}
		}
		idx, err := s.round(cands)
		if err != nil {
			return improved, err
		}
		if idx < 0 {
			return improved, nil
		}
		improved = true
	}
	return improved, nil
}

// overlaySlot addresses one delivered unreliable slot.
type overlaySlot struct{ step, slot int }

func deliveredOverlaySlots(s *sim.Schedule) []overlaySlot {
	var out []overlaySlot
	for k := range s.Steps {
		st := &s.Steps[k]
		for slot := st.NR; slot < len(st.Recv); slot++ {
			if st.Recv[slot] != sim.NoDelivery {
				out = append(out, overlaySlot{k, slot})
			}
		}
	}
	return out
}

// pruneDeliveries removes delivered unreliable-edge slots ddmin-style:
// chunks of halving size, each granularity one candidate batch, with the
// slot list recomputed after every accepted reduction (acceptance
// re-closes the schedule, which can reshape it).
func (s *shrinker) pruneDeliveries() (bool, error) {
	improved := false
	items := deliveredOverlaySlots(s.cur)
	chunk := len(items)
	for chunk >= 1 && s.attempts < shrinkAttemptCap {
		cands := make([]*sim.Schedule, 0, (len(items)+chunk-1)/chunk)
		for i := 0; i < len(items); i += chunk {
			cand := s.cur.Clone()
			applied := 0
			for _, it := range items[i:min(i+chunk, len(items))] {
				if cand.FlipCoin(it.step, it.slot) {
					applied++
				}
			}
			if applied > 0 {
				cands = append(cands, cand)
			}
		}
		idx, err := s.round(cands)
		if err != nil {
			return improved, err
		}
		if idx >= 0 {
			improved = true
			// Restart this granularity on the reshaped schedule.
			items = deliveredOverlaySlots(s.cur)
			if len(items) == 0 {
				break
			}
			if chunk > len(items) {
				chunk = len(items)
			}
			continue
		}
		chunk /= 2
	}
	return improved, nil
}

// truncateSteps tries cutting the recorded suffix at halving fractions,
// letting the fallback planner finish the run; acceptance re-closes the
// schedule, so an accepted truncation only survives when the re-recorded
// complete run is genuinely smaller.
func (s *shrinker) truncateSteps() (bool, error) {
	improved := false
	for s.attempts < shrinkAttemptCap {
		n := len(s.cur.Steps)
		if n == 0 {
			return improved, nil
		}
		cands := make([]*sim.Schedule, 0, 3)
		for _, p := range []int{n / 2, (3 * n) / 4, n - 1} {
			if p < 0 || p >= n {
				continue
			}
			if cand := s.cur.Clone(); cand.Truncate(p) {
				cands = append(cands, cand)
			}
		}
		idx, err := s.round(cands)
		if err != nil {
			return improved, err
		}
		if idx < 0 {
			return improved, nil
		}
		improved = true
	}
	return improved, nil
}
