// Package explore searches the schedule space of a scenario for property
// violations and minimizes the counterexamples it finds.
//
// The paper's adversary is the scheduler: correctness must hold for every
// delivery ordering within the Fack bound, not just the orderings a few
// seeds happen to sample. This package turns the simulator's schedule
// record/replay layer (sim.Schedule, sim.Replay, harness.RunRecorded /
// harness.ReplayRunner) into a systematic search: record the base
// scenario's execution, then explore perturbations of its recorded
// decisions — swapped delivery orders, re-jittered delays within Fack,
// flipped unreliable-edge coins, shifted or dropped crashes — replaying
// each candidate on a worker pool of reusable engines and hunting for
// consensus violations (non-termination via the event cap, agreement and
// validity via consensus.Check, substrate violations via the engine's own
// audit).
//
// Exploration is deterministic given (scenario, Options): candidates are
// generated centrally — a bounded radius-1 neighborhood enumeration of the
// base schedule followed by seeded random walks — deduplicated by schedule
// fingerprint, and findings are reported in candidate order regardless of
// worker scheduling. A candidate is a sim.Schedule.Clone of its
// predecessor and shares every step it does not perturb, so it costs one
// pointer per step plus the step it rewrote, and replay workers read
// shared steps that the generator never writes.
//
// The Shrinker (shrink.go) delta-debugs a violating schedule down to a
// minimal failing artifact; Artifact (artifact.go) is the JSON file format
// `amacsim -record`, `-explore`, `-grid` and `-replay` read and write.
//
// Counterexample is the one path from a scenario to an artifact (search,
// pick, close, shrink). `amacsim -explore` calls it once; the
// campaign pipeline (campaign.go) calls it per flagged cell. Campaign
// sweeps a whole harness.Grid with schedule-coverage fingerprints on
// (harness.SweepOptions), collects every violating (scenario, seed) the
// cell workers classify, and runs the first flagged run of each cell
// through Counterexample. All replay work — exploration candidates and
// shrink candidates across every flagged cell — runs on one shared worker
// pool (pool.go) whose workers cache ReplayRunners per scenario, and
// shrinking evaluates its ddmin candidate batches speculatively in
// parallel while accepting in deterministic candidate order, so campaign
// reports and artifacts are byte-identical at every pool width.
// `amacsim -grid` is the CLI.
package explore

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/sim"
)

// Options tunes an exploration. The zero value means: no search (the
// report holds the recorded base run alone), workers GOMAXPROCS, seed 1.
// Every replay runs under Scenario.MaxEvents; a capped run with undecided
// survivors classifies as non-termination.
type Options struct {
	// Budget is the number of perturbed schedules to replay (<= 0 skips
	// the search).
	Budget int
	// Workers is the replay worker-pool width (<= 0 means GOMAXPROCS).
	Workers int
	// Seed drives candidate generation.
	Seed int64
}

// walkLen is the random-walk chain length: every walkLen-th walk candidate
// restarts from the base schedule, in between each candidate perturbs its
// predecessor.
const walkLen = 8

func (o Options) withDefaults() Options {
	o.Budget = max(o.Budget, 0)
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Finding is one violating candidate schedule.
type Finding struct {
	// Candidate is the candidate's generation index — the deterministic
	// identity of the finding within one exploration.
	Candidate int `json:"candidate"`
	// Violation describes what broke.
	Violation consensus.Violation `json:"violation"`
	// Steps and Deliveries size the violating schedule.
	Steps      int `json:"steps"`
	Deliveries int `json:"deliveries"`
	// DivergedAt is the step index at which the replay left the base
	// recording (-1 when it replayed entirely — only possible for the
	// base schedule itself).
	DivergedAt int `json:"diverged_at"`
	// Schedule is the violating schedule (not serialized in reports;
	// artifacts carry schedules).
	Schedule *sim.Schedule `json:"-"`
}

// Stats counts what an exploration did.
type Stats struct {
	// Replays counts replayed candidates. It can fall short of
	// Options.Budget when perturbation exhausts the reachable schedule
	// space (every further candidate deduplicates away).
	Replays int `json:"replays"`
	// Deduped counts candidates discarded as fingerprint-duplicates of
	// earlier ones (the base schedule included).
	Deduped int `json:"deduped"`
	// Diverged counts replays that left the base recording (perturbations
	// upstream of a broadcast change everything after it, so this is
	// normally close to Replays).
	Diverged int `json:"diverged"`
	// Violations counts violating candidates.
	Violations int `json:"violations"`
}

// Report is the result of one exploration.
type Report struct {
	Scenario harness.Scenario `json:"scenario"`
	// Base is the violation of the unperturbed recorded run, if any — the
	// scenario's own behaviour is candidate -1, minimizable like any
	// finding.
	Base *consensus.Violation `json:"base_violation,omitempty"`
	// BaseSteps/BaseDeliveries size the base recording.
	BaseSteps      int `json:"base_steps"`
	BaseDeliveries int `json:"base_deliveries"`
	// Findings lists violating candidates in candidate order.
	Findings []*Finding `json:"findings"`
	Stats    Stats      `json:"stats"`
	// BaseSchedule is the base recording (artifact material, not report
	// JSON).
	BaseSchedule *sim.Schedule `json:"-"`
}

// candidate pairs a generated schedule with its deterministic index.
type candidate struct {
	idx int
	s   *sim.Schedule
}

// Explore records the scenario's base execution and searches perturbations
// of its schedule for property violations. Deterministic given (sc, opts):
// rerunning an exploration reproduces its findings exactly, at any worker
// count.
func Explore(sc harness.Scenario, opts Options) (*Report, error) {
	p := newEvalPool(opts.Workers)
	defer p.close()
	return exploreOn(p, sc, opts)
}

// exploreOn runs one exploration on a caller-owned pool, where the
// counterexample path's search, close and shrink share its per-worker
// runner caches. opts.Workers is ignored here; the pool's width rules.
func exploreOn(p *evalPool, sc harness.Scenario, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	baseOut, baseSched, err := sc.RunRecorded()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Scenario:       sc,
		Base:           baseOut.Violation(),
		BaseSteps:      len(baseSched.Steps),
		BaseDeliveries: baseSched.Deliveries(),
		BaseSchedule:   baseSched,
	}

	results := make([]*Finding, opts.Budget)
	runErrs := make([]error, opts.Budget)
	var diverged atomic.Int64
	var failed atomic.Bool // a run error aborts the exploration, so stop replaying
	var wg sync.WaitGroup

	// Central deterministic candidate generation: neighborhood first, then
	// seeded random walks; both deduplicated against everything generated
	// so far (and against the base schedule). The generator runs on this
	// goroutine and the pool's submit blocks when every worker is busy, so
	// generation never outruns the replays by more than the pool width.
	gen := newGenerator(baseSched, opts)
	gen.run(func(c candidate) {
		if failed.Load() {
			// The exploration is already doomed to return an error;
			// generation stays (it is cheap and keeps candidate indices
			// deterministic) but the replays stop.
			return
		}
		wg.Add(1)
		p.submit(func(rs *runnerSet) {
			defer wg.Done()
			runner, err := rs.runner(sc)
			if err != nil {
				runErrs[c.idx] = err
				failed.Store(true)
				return
			}
			out, rp, err := runner.Run(c.s, nil)
			if err != nil {
				runErrs[c.idx] = fmt.Errorf("candidate %d: %w", c.idx, err)
				failed.Store(true)
				return
			}
			if rp.Diverged() {
				diverged.Add(1)
			}
			if v := out.Violation(); v != nil {
				results[c.idx] = &Finding{
					Candidate:  c.idx,
					Violation:  *v,
					Steps:      len(c.s.Steps),
					Deliveries: c.s.Deliveries(),
					DivergedAt: rp.DivergedAt(),
					Schedule:   c.s,
				}
			}
		})
	})
	wg.Wait()
	for _, err := range runErrs {
		if err != nil {
			return nil, err
		}
	}

	rep.Stats = Stats{
		Replays:  gen.produced,
		Deduped:  gen.deduped,
		Diverged: int(diverged.Load()),
	}
	for _, f := range results {
		if f == nil {
			continue
		}
		rep.Stats.Violations++
		rep.Findings = append(rep.Findings, f)
	}
	return rep, nil
}

// Counterexample is the one counterexample path, behind explore mode and
// every campaign finding. It records sc's base run and searches
// opts.Budget perturbations of its schedule, picks the most severe
// violation (consensus.Severity; among equals the base run, then the
// earliest candidate), closes a perturbed pick into a complete recording,
// and minimizes when asked. The artifact is nil when nothing violated;
// with minimize it is the ShrinkResult's. Deterministic given (sc, opts,
// minimize) at any width.
func Counterexample(sc harness.Scenario, opts Options, minimize bool) (*Report, *Artifact, *ShrinkResult, error) {
	p := newEvalPool(opts.Workers)
	defer p.close()
	return counterexampleOn(p, sc, opts, minimize)
}

// counterexampleOn is Counterexample on a caller-owned pool (a
// campaign's, shared across its flagged cells).
func counterexampleOn(p *evalPool, sc harness.Scenario, opts Options, minimize bool) (*Report, *Artifact, *ShrinkResult, error) {
	rep, err := exploreOn(p, sc, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	schedule, v := rep.BaseSchedule, rep.Base
	var pick *Finding
	rank := math.MaxInt // a clean base loses to any finding
	if v != nil {
		rank = consensus.Severity(v.Kind)
	}
	for _, f := range rep.Findings {
		if r := consensus.Severity(f.Violation.Kind); r < rank {
			pick, rank = f, r
		}
	}
	if pick != nil {
		// A perturbed schedule diverges by construction; re-recording
		// closes it so the artifact replays with zero divergence.
		p.runOne(func(rs *runnerSet) { schedule, v, _, err = rs.rerecord(sc, pick.Schedule) })
		if err != nil {
			return nil, nil, nil, err
		}
		if v == nil || v.Kind != pick.Violation.Kind {
			return nil, nil, nil, fmt.Errorf("finding %d did not reproduce on re-recording (got %+v, want %s)", pick.Candidate, v, pick.Violation.Kind)
		}
	}
	if v == nil {
		return rep, nil, nil, nil
	}
	a := &Artifact{Format: ArtifactFormat, Scenario: sc, MaxEvents: sc.MaxEvents, Schedule: schedule, Violation: v}
	if !minimize {
		return rep, a, nil, nil
	}
	res, err := shrinkOn(p, sc, schedule, v.Kind)
	if err != nil {
		return nil, nil, nil, err
	}
	return rep, res.Artifact, res, nil
}

// generator produces the deterministic candidate sequence.
type generator struct {
	base     *sim.Schedule
	rng      *rand.Rand
	seen     map[uint64]bool
	opts     Options
	produced int
	deduped  int
}

// newGenerator starts the candidate sequence of base under opts (with
// defaults applied): the base schedule counts as already seen.
func newGenerator(base *sim.Schedule, opts Options) *generator {
	return &generator{
		base: base,
		rng:  rand.New(rand.NewSource(opts.Seed)),
		seen: map[uint64]bool{base.Fingerprint(): true},
		opts: opts,
	}
}

// emit deduplicates and sinks a candidate; it reports whether the
// candidate was fresh.
func (g *generator) emit(work func(candidate), s *sim.Schedule) bool {
	h := s.Fingerprint()
	if g.seen[h] {
		g.deduped++
		return false
	}
	g.seen[h] = true
	work(candidate{idx: g.produced, s: s})
	g.produced++
	return true
}

func (g *generator) run(work func(candidate)) {
	// Phase 1 — bounded neighborhood: radius-1 perturbations of the base
	// schedule, enumerated step by step (jitter the step's timing, swap
	// its first two delivered slots, flip each of its unreliable coins),
	// capped at half the budget so the walk phase always runs.
	nbCap := g.opts.Budget / 2
	for k := 0; k < len(g.base.Steps) && g.produced < nbCap; k++ {
		if c := g.base.Clone(); c.JitterStep(k, g.opts.Seed^int64(k)*2654435761) {
			g.emit(work, c)
		}
		if g.produced >= nbCap {
			break
		}
		if c := g.base.Clone(); c.SwapRecv(k, 0, 1) {
			g.emit(work, c)
		}
		st := g.base.Steps[k]
		for slot := st.NR; slot < len(st.Recv) && g.produced < nbCap; slot++ {
			if c := g.base.Clone(); c.FlipCoin(k, slot) {
				g.emit(work, c)
			}
		}
	}
	// Crash neighborhood: drop each crash, and nudge each crash time.
	for i := 0; i < len(g.base.Crashes) && g.produced < nbCap; i++ {
		if c := g.base.Clone(); c.DropCrash(i) {
			g.emit(work, c)
		}
		for _, at := range []int64{0, g.base.Crashes[i].At + 1, g.base.Crashes[i].At + g.base.Fack} {
			if g.produced >= nbCap {
				break
			}
			if c := g.base.Clone(); c.ShiftCrash(i, at) {
				g.emit(work, c)
			}
		}
	}

	// Phase 2 — seeded random walks: chains of walkLen perturbations, each
	// chain restarted from the base schedule.
	cur := g.base
	step := 0
	for attempts := 0; g.produced < g.opts.Budget && attempts < 16*g.opts.Budget; attempts++ {
		if step%walkLen == 0 {
			cur = g.base
		}
		c := cur.Clone()
		if !perturb(g.rng, c) {
			continue
		}
		if g.emit(work, c) {
			cur = c
			step++
		}
	}
}

// perturb applies one random perturbation to s, retrying a few times when
// the drawn operation does not apply; it reports whether s was mutated.
func perturb(rng *rand.Rand, s *sim.Schedule) bool {
	if len(s.Steps) == 0 {
		return false
	}
	for try := 0; try < 16; try++ {
		switch rng.Intn(6) {
		case 0, 1: // swap two delivery slots of one step
			k := rng.Intn(len(s.Steps))
			n := len(s.Steps[k].Recv)
			if n < 2 {
				continue
			}
			if s.SwapRecv(k, rng.Intn(n), rng.Intn(n)) {
				return true
			}
		case 2, 3: // re-jitter one step's timing within Fack
			if s.JitterStep(rng.Intn(len(s.Steps)), rng.Int63()) {
				return true
			}
		case 4: // flip one unreliable-edge coin
			k := rng.Intn(len(s.Steps))
			st := s.Steps[k]
			if len(st.Recv) == st.NR {
				continue
			}
			if s.FlipCoin(k, st.NR+rng.Intn(len(st.Recv)-st.NR)) {
				return true
			}
		case 5: // move or drop a crash
			if len(s.Crashes) == 0 {
				continue
			}
			i := rng.Intn(len(s.Crashes))
			if rng.Intn(4) == 0 {
				if s.DropCrash(i) {
					return true
				}
				continue
			}
			if s.ShiftCrash(i, rng.Int63n(4*s.Fack+1)) {
				return true
			}
		}
	}
	return false
}
