package main

import (
	"path/filepath"
	"runtime"
	"time"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/critpath"
	"github.com/absmac/absmac/internal/explore"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/metrics"
	"github.com/absmac/absmac/internal/sim"
)

// exploreWorkload runs the record → perturb → replay → classify path: one
// timed sample is one explore.Explore of a healthy faulty cell at Workers
// 1, one op is one candidate replay.
type exploreWorkload struct{}

const (
	exploreBudget      = 1024
	exploreSetupBudget = 64
	exploreReps        = 8 // Explore calls per ten measured seconds
	// explorePanel is how many scenario seeds the simulated metrics of a
	// run average over. A base recording costs a millisecond or two where
	// an exploration costs a second, and the faulty cell's delivery count
	// is heavy-tailed across seeds (a crashed leader costs a detector
	// timeout), so the panel is much wider than the explored seeds (which
	// are its first exploreReps entries) and the metrics are its medians.
	explorePanel        = 512
	exploreTraceReplays = 64
)

func (exploreWorkload) name() string { return "explore_replay" }
func (exploreWorkload) why() string {
	return "explore.Explore (budget 1024, Workers 1) of wpaxos on grid:5x5, midbroadcast crash, chords overlay: schedule clone/hash/dedupe, sim.Replay, ReplayRunner - no decide run touches them; 8 calls per 10 s"
}

func (exploreWorkload) scenario(a runArgs, i int) harness.Scenario {
	return harness.Scenario{
		Algo: "wpaxos", Topo: harness.Topo{Kind: "grid", Rows: 5, Cols: 5}, Sched: "random", Fack: decideFack,
		Seed: scenarioSeed(a.seed, i), Crashes: "midbroadcast", Overlay: "chords",
		MaxEvents: harness.DefaultSweepMaxEvents,
	}
}

func exploreOpts(a runArgs, budget int) explore.Options {
	if a.toy {
		budget = 16
	}
	return explore.Options{Budget: budget, Workers: 1, Seed: a.seed}
}

// failedFindings counts the findings that are wrong answers; a perturbed
// schedule that merely fails to terminate is what the explorer looks for.
func failedFindings(rep *explore.Report) int {
	n := 0
	for _, f := range rep.Findings {
		if f.Violation.Kind != consensus.KindNonTermination {
			n++
		}
	}
	return n
}

// committedArtifacts are the recordings under internal/harness/testdata
// that must keep replaying without divergence.
var committedArtifacts = []string{
	"golden_floodpaxos_one3_extra.json",
	"golden_wpaxos_midbroadcast_chords.json",
	"stall_twophase_coordinator_chords.json",
}

const stallArtifact = "stall_twophase_coordinator_chords.json"

func artifactPath(a runArgs, name string) string {
	return filepath.Join(a.root, "internal", "harness", "testdata", name)
}

func checkArtifacts(a runArgs, o *outcome) {
	for _, name := range committedArtifacts {
		art, err := explore.ReadFile(artifactPath(a, name))
		if err != nil {
			o.problem("artifact %s: %v", name, err)
			continue
		}
		_, rp, err := art.Replay(nil)
		if err != nil {
			o.problem("artifact %s: %v", name, err)
		} else if rp.Diverged() {
			o.problem("artifact %s diverged at step %d", name, rp.DivergedAt())
		}
	}
}

// setup is what one amacexplore invocation pays before it searches: record
// the base run of scenario i, build a replay runner, and a small
// exploration.
func (w exploreWorkload) setup(a runArgs, i int) (explore.Stats, float64, error) {
	runtime.GC()
	t0 := time.Now()
	sc := w.scenario(a, i)
	if _, _, err := sc.RunRecorded(); err != nil {
		return explore.Stats{}, 0, err
	}
	if _, err := sc.NewReplayRunner(); err != nil {
		return explore.Stats{}, 0, err
	}
	rep, err := explore.Explore(sc, exploreOpts(a, exploreSetupBudget))
	if err != nil {
		return explore.Stats{}, 0, err
	}
	return rep.Stats, time.Since(t0).Seconds(), nil
}

func (w exploreWorkload) run(a runArgs, o *outcome) error {
	if a.trace {
		return w.runTraced(a, o)
	}
	// Set-ups alternate between scenarios 0 and 1, so each small
	// exploration runs more than once and must repeat itself.
	var setups []float64
	var first [2]explore.Stats
	for moreSetups(a, setups) {
		k := len(setups)
		stats, secs, err := w.setup(a, k%2)
		if err != nil {
			return err
		}
		if k < 2 {
			first[k] = stats
		} else if stats != first[k%2] {
			o.problem("set-up exploration does not repeat: %+v then %+v", first[k%2], stats)
		}
		setups = append(setups, secs)
	}

	var deliveries, ratios []float64
	panel := explorePanel
	if a.toy {
		panel = 4
	}
	for i := 0; i < panel; i++ {
		base, _, err := w.scenario(a, i).RunRecorded()
		if err != nil {
			return err
		}
		if v := base.Violation(); v != nil {
			o.problem("base recording %d violates %s", i, v.Kind)
		}
		deliveries = append(deliveries, float64(base.Result.Deliveries))
		ratios = append(ratios, float64(base.Result.MaxDecideTime)/float64(int64(base.Diameter)*base.Fack))
	}

	reps := scaledReps(exploreReps, a.seconds)
	var walls, allocs, lives []float64
	for i := 0; i < reps; i++ {
		sc := w.scenario(a, i)
		runtime.GC()
		alloc0 := totalAlloc()
		t0 := time.Now()
		rep, err := explore.Explore(sc, exploreOpts(a, exploreBudget))
		wall := time.Since(t0).Seconds()
		alloc := totalAlloc() - alloc0
		if err != nil {
			return err
		}
		o.Attempted += rep.Stats.Replays
		if bad := failedFindings(rep); bad > 0 {
			o.Failed += bad
			o.problem("exploration %d: %d perturbed schedules broke agreement, validity or the substrate", i, bad)
		}
		walls = append(walls, wall/float64(rep.Stats.Replays))
		allocs = append(allocs, float64(alloc)/mb/float64(rep.Stats.Replays))
		lives = append(lives, float64(liveHeap())/mb)
		runtime.KeepAlive(rep)
	}
	checkArtifacts(a, o)

	o.EndToEnd["wall_s_per_op"] = timing(walls, "s")
	o.EndToEnd.set(endToEnd, "deliveries_per_op", median(deliveries))
	o.EndToEnd.set(endToEnd, "decide_ticks_per_dfack", median(ratios))
	o.EndToEnd.set(endToEnd, "alloc_mb_per_op", median(allocs))
	o.EndToEnd.set(endToEnd, "live_heap_mb", median(lives))
	o.finishEndToEnd(setups)
	return nil
}

// replayConfig is what harness.ReplayRunner assembles per replay, built by
// hand so the shims can sit on it: the scenario's fixed configuration with
// the schedule supplying the delivery plans and the crash times.
func replayConfig(sc harness.Scenario, sched *sim.Schedule) (sim.Config, *sim.Replay, error) {
	cfg, err := sc.Config()
	if err != nil {
		return sim.Config{}, nil, err
	}
	rp := sim.NewReplay(sched)
	cfg.Scheduler = rp
	cfg.Crashes = sched.Crashes
	return cfg, rp, nil
}

func (w exploreWorkload) runTraced(a runArgs, o *outcome) error {
	tr := newTracer()
	pl := o.PerLayer
	sc := w.scenario(a, 0)

	var (
		base  *harness.Outcome
		sched *sim.Schedule
		err   error
	)
	tr.span(spRecord, func() { base, sched, err = sc.RunRecorded() })
	if err != nil {
		return err
	}
	recordS := tr.self(tr.agg, spRecord)
	pl.set(perLayer, "explore.record_s", recordS)
	baseCounters := countersOf(base.Result)
	setCounts(pl, baseCounters)
	if err := graphProbe(pl, tr, []harness.CellWork{{Base: sc, Seeds: []int64{sc.Seed}}}); err != nil {
		return err
	}

	// The search itself, bare and then inside a span: same statistics.
	bare, err := explore.Explore(sc, exploreOpts(a, exploreBudget))
	if err != nil {
		return err
	}
	var rep *explore.Report
	tr.span(spExplore, func() { rep, err = explore.Explore(sc, exploreOpts(a, exploreBudget)) })
	if err != nil {
		return err
	}
	o.Attempted += rep.Stats.Replays
	o.Failed += failedFindings(rep)
	if rep.Stats != bare.Stats {
		o.problem("exploration does not repeat: %+v then %+v", bare.Stats, rep.Stats)
	}
	searchS := tr.self(tr.agg, spExplore) - recordS
	st := rep.Stats
	pl.set(perLayer, "explore.search_s", searchS)
	pl.set(perLayer, "explore.replays", float64(st.Replays))
	pl.set(perLayer, "explore.deduped", float64(st.Deduped))
	pl.set(perLayer, "explore.diverged", float64(st.Diverged))
	pl.set(perLayer, "explore.dedup_ratio", float64(st.Deduped)/float64(st.Replays+st.Deduped))
	pl.set(perLayer, "explore.replays_per_s", float64(st.Replays)/searchS)

	// Candidate replays: the base recording plus jittered clones of it,
	// once through harness.ReplayRunner (the untraced reference) and once
	// by hand under the shims.
	cands := []*sim.Schedule{sched}
	for k := 1; k < exploreTraceReplays && len(sched.Steps) > 0; k++ {
		c := sched.Clone()
		if c.JitterStep(k*len(sched.Steps)/exploreTraceReplays, a.seed+int64(k)) {
			cands = append(cands, c)
		}
	}
	runner, err := sc.NewReplayRunner()
	if err != nil {
		return err
	}
	var eng *sim.Engine
	var refWall, tracedWall, events float64
	opsBefore := tr.agg
	for i, c := range cands {
		var out *harness.Outcome
		t0 := time.Now()
		tr.span(spReplay, func() { out, _, err = runner.Run(c, nil) })
		refWall += time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		ref := countersOf(out.Result)
		events += float64(ref.Events)
		if i == 0 && ref != baseCounters {
			o.problem("replaying the base recording changed its counters: %+v, recorded %+v", ref, baseCounters)
		}
		cfg, _, err := replayConfig(sc, c)
		if err != nil {
			return err
		}
		res, _, wall := execOp(&eng, cfg, tr)
		tracedWall += wall
		if got := countersOf(res); got != ref {
			o.problem("candidate %d: traced replay counters %+v, untraced %+v", i, got, ref)
		}
	}
	ops := tr.agg.sub(opsBefore)
	n := float64(len(cands))
	pl.set(perLayer, "harness.replay_s_per_call", tr.self(ops, spReplay)/n)
	pl.set(perLayer, "sim.engine.host_ns_per_event", refWall*1e9/events)
	pl.set(perLayer, "trace.overhead_ratio", tracedWall/refWall)
	lt := layerTimes(tr, ops, n)
	lt.emit(pl, events/n)
	pl.set(perLayer, "algo."+sc.Algo+".share", lt.algoShare())

	// metrics and critpath over the base recording, medians of a few
	// repeats (one replay is a few milliseconds).
	replayBase := func(mutate func(*sim.Config)) (float64, error) {
		var walls []float64
		for k := 0; k < 9; k++ {
			cfg, _, err := replayConfig(sc, sched)
			if err != nil {
				return 0, err
			}
			if mutate != nil {
				mutate(&cfg)
			}
			_, _, wall := execOp(&eng, cfg, nil)
			walls = append(walls, wall)
		}
		return median(walls), nil
	}
	plain, err := replayBase(nil)
	if err != nil {
		return err
	}
	reg := metrics.New()
	withMetrics, err := replayBase(func(c *sim.Config) { c.Metrics = reg })
	if err != nil {
		return err
	}
	pl.set(perLayer, "metrics.overhead_ratio", withMetrics/plain)
	registryReads(pl, reg)
	var coll *critpath.Collector
	withCritpath, err := replayBase(func(c *sim.Config) {
		coll = critpath.NewCollector(critpath.ClassifierFor(sc.Algo))
		c.Observer = coll.Observer()
	})
	if err != nil {
		return err
	}
	pl.set(perLayer, "critpath.overhead_ratio", withCritpath/plain)
	critpathReads(pl, coll)

	// Shrinking: minimise the committed two-phase coordinator stall.
	art, err := explore.ReadFile(artifactPath(a, stallArtifact))
	if err != nil {
		o.problem("artifact %s: %v", stallArtifact, err)
	} else {
		var shrunk *explore.ShrinkResult
		tr.span(spShrink, func() {
			shrunk, err = explore.Shrink(art.Scenario, art.Schedule, art.Violation.Kind, explore.ShrinkOptions{MaxEvents: art.MaxEvents, Workers: 1})
		})
		if err != nil {
			o.problem("shrinking %s: %v", stallArtifact, err)
		} else {
			pl.set(perLayer, "explore.shrink_s", tr.self(tr.agg, spShrink))
			pl.set(perLayer, "explore.shrink_attempts", float64(shrunk.Attempts))
		}
	}
	checkArtifacts(a, o)

	detectorProbe(pl, a)
	return tr.finish(a, o, []spanAggs{ops})
}
