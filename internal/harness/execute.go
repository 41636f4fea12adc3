package harness

import (
	"fmt"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/metrics"
	"github.com/absmac/absmac/internal/sim"
)

// Exec names what one execution wraps around its configuration; the zero
// value is a plain run. The package comment says what wraps what, in which
// order, and who owns the engine.
type Exec struct {
	// Replay drives the execution from this schedule instead of the
	// scenario's scheduler: its plans answer the broadcasts (a seeded
	// fallback planner takes over at the first divergence) and its crash
	// schedule replaces the configuration's. The returned sim.Replay
	// reports whether and where the run left the schedule.
	Replay *sim.Schedule
	// Record captures every broadcast's finished plan and the crash
	// schedule into the returned sim.Schedule, which replays
	// byte-identically, at one plan copy per broadcast and nothing on the
	// delivery path. Over a Replay it re-records what actually ran —
	// replayed prefix and post-divergence fallback alike — closing a
	// perturbed or truncated schedule into one that replays with no
	// divergence.
	Record bool
	// Fingerprint computes Outcome.Fingerprint.
	Fingerprint bool
	// Observer receives every engine event in execution order, plus the
	// EventDiverge marker of a Replay. It replaces cfg.Observer: the
	// request is the one way to hand one over (ChainObservers joins several).
	Observer func(sim.Event)
	// Metrics is installed as the run's flight-recorder registry,
	// replacing cfg.Metrics. The engine zeroes it when the run starts, so
	// afterwards it holds exactly this run's values; nil keeps every
	// handle disabled, the configuration BENCH_engine.json's pins measure.
	Metrics *metrics.Registry
}

// ChainObservers fans one engine-event stream out to every given observer,
// in order. It returns nil for none — the engine then skips observer
// dispatch entirely — and the observer itself for one.
func ChainObservers(obs ...func(sim.Event)) func(sim.Event) {
	switch len(obs) {
	case 0:
		return nil
	case 1:
		return obs[0]
	}
	return func(ev sim.Event) {
		for _, o := range obs {
			o(ev)
		}
	}
}

// executor runs executions one after another on one engine and one
// sim.Replay, so a sweep worker or a ReplayRunner pays their allocations
// once. It is single-goroutine, and an Outcome's Result and the returned
// Replay are valid until its next execution.
type executor struct {
	caches *caches
	eng    *sim.Engine
	rp     *sim.Replay
}

func (x *executor) run(s Scenario, req Exec) (*Outcome, *sim.Replay, *sim.Schedule, error) {
	cfg, te, err := s.build(x.caches)
	if err != nil {
		return nil, nil, nil, err
	}
	return x.execute(s, cfg, te.diameter(), req)
}

// execute is the executor: cfg is s built (by build, or a copy of that the
// caller decorated), diameter its topology's, req what to wrap around it.
// The Replay and the Schedule are nil unless req asked for them.
func (x *executor) execute(s Scenario, cfg sim.Config, diameter int, req Exec) (*Outcome, *sim.Replay, *sim.Schedule, error) {
	var rp *sim.Replay
	if req.Replay != nil {
		// The schedule is the one part of an execution that comes from
		// outside the program (an artifact file), so this is where a
		// misfit is an error and not the engine's panic.
		if err := req.Replay.Validate(); err != nil {
			return nil, nil, nil, err
		}
		if x.rp == nil {
			x.rp = sim.NewReplay(req.Replay)
		} else {
			x.rp.Reset(req.Replay)
		}
		rp = x.rp
		rp.Observer = req.Observer
		cfg.Scheduler, cfg.Crashes = rp, req.Replay.Crashes
		if err := cfg.Validate(); err != nil {
			return nil, nil, nil, fmt.Errorf("harness: schedule does not fit scenario %s on %s: %w", s.Algo, s.Topo, err)
		}
	}
	var sched *sim.Schedule
	if req.Record {
		rec := sim.RecordSchedule(cfg.Scheduler)
		// Crashes, DeliverP and FallbackSeed are configuration, not
		// scheduler decisions: a re-recording inherits them from the
		// schedule it replays, a first recording from the scenario.
		rec.S.Crashes = append([]sim.Crash(nil), cfg.Crashes...)
		if req.Replay != nil {
			rec.S.DeliverP, rec.S.FallbackSeed = req.Replay.DeliverP, req.Replay.FallbackSeed
		} else {
			p, err := overlayDeliverP(s.Overlay)
			if err != nil {
				return nil, nil, nil, err
			}
			rec.S.DeliverP, rec.S.FallbackSeed = p, fallbackSeed(s.Seed)
		}
		cfg.Scheduler, sched = rec, rec.S
	}
	var fp *sim.Fingerprinter
	if req.Fingerprint {
		fp = sim.NewFingerprinter(cfg.Scheduler, cfg.Crashes)
		cfg.Scheduler = fp
	}
	cfg.Observer, cfg.Metrics = req.Observer, req.Metrics
	if x.eng == nil {
		x.eng = sim.NewEngine(cfg)
	} else {
		x.eng.Reset(cfg)
	}
	res := x.eng.Run()
	out := &Outcome{
		Scenario: s,
		Result:   res,
		Report:   consensus.Check(cfg.Inputs, res),
		N:        cfg.Graph.N(),
		Diameter: diameter,
		Fack:     cfg.Scheduler.Fack(),
	}
	if fp != nil {
		out.Fingerprint = fp.Sum()
		if salt := s.fingerprintSalt(); salt != 0 {
			out.Fingerprint = sim.SaltFingerprint(out.Fingerprint, salt)
		}
	}
	return out, rp, sched, nil
}

// Execute runs cfg — the configuration s.Config() returned, which the
// caller may have inspected or decorated in between (a wrapped Factory) —
// under req, on a fresh engine.
func Execute(s Scenario, cfg sim.Config, req Exec) (*Outcome, *sim.Replay, *sim.Schedule, error) {
	return new(executor).execute(s, cfg, cfg.Graph.Diameter(), req)
}

// Run executes the scenario and checks the consensus properties. (Run,
// RunRecorded and ReplayRunner are the adapters bench/ compiles against:
// the executor with the request filled in.)
func (s Scenario) Run() (*Outcome, error) {
	out, _, _, err := (&executor{caches: newCaches()}).run(s, Exec{})
	return out, err
}

// RunRecorded executes the scenario exactly as Run does while recording
// it (Exec.Record).
func (s Scenario) RunRecorded() (*Outcome, *sim.Schedule, error) {
	out, _, sched, err := (&executor{caches: newCaches()}).run(s, Exec{Record: true})
	return out, sched, err
}

// ReplayRunner re-executes schedules against one scenario's fixed
// configuration — same topology, overlay, inputs and algorithm; the
// schedule supplies the delivery plans and the crash times. The scenario
// is built once, into a template every replay copies, and the runner keeps
// one engine. A runner is single-goroutine; exploration pools create one
// per worker.
type ReplayRunner struct {
	sc   Scenario
	cfg  sim.Config // template; the executor sets Scheduler and Crashes, Factory is fresh per replay
	topo *topoEntry
	x    executor
}

// NewReplayRunner builds the scenario once and returns a runner for it.
func (s Scenario) NewReplayRunner() (*ReplayRunner, error) {
	cfg, te, err := s.build(newCaches())
	if err != nil {
		return nil, err
	}
	return &ReplayRunner{sc: s, cfg: cfg, topo: te}, nil
}

// Run replays sched against the runner's scenario (Exec.Replay) and checks
// the consensus properties. The returned Replay reports whether and where
// the execution diverged from the recording: a clean recorded schedule
// replays with Diverged()==false and reproduces the original sim.Result
// byte for byte; a perturbed or truncated schedule diverges at its first
// unanswered broadcast and continues on the schedule's seeded fallback
// planner. The Outcome's Result and the Replay are valid only until the
// runner's next Run or RunRecorded.
func (r *ReplayRunner) Run(sched *sim.Schedule, observer func(sim.Event)) (*Outcome, *sim.Replay, error) {
	out, rp, _, err := r.replay(Exec{Replay: sched, Observer: observer})
	return out, rp, err
}

// RunRecorded replays sched while re-recording the execution it actually
// produces (Exec.Replay with Exec.Record) and returns that recording as a
// new, closed Schedule — how the shrinker turns a perturbed or truncated
// schedule back into a self-contained artifact after every accepted
// reduction.
func (r *ReplayRunner) RunRecorded(sched *sim.Schedule, observer func(sim.Event)) (*Outcome, *sim.Replay, *sim.Schedule, error) {
	return r.replay(Exec{Replay: sched, Record: true, Observer: observer})
}

func (r *ReplayRunner) replay(req Exec) (*Outcome, *sim.Replay, *sim.Schedule, error) {
	// A factory may carry per-run state, so each replay gets its own, as
	// each sweep run does.
	factory, err := NewFactory(r.sc.Algo, r.cfg.Graph.N(), r.sc.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := r.cfg
	cfg.Factory = factory
	return r.x.execute(r.sc, cfg, r.topo.diameter(), req)
}
