// Command amacexplore searches the schedule space of one scenario for
// consensus violations, minimizes the counterexamples it finds, and
// replays committed counterexample artifacts.
//
// The scenario is named exactly as in amacsim's single-cell mode (the
// harness registries: -algo, -topo, -sched, -fack, -seed, -inputs,
// -crash, -overlay). The explorer records the scenario's base execution
// as a sim.Schedule — every broadcast's delivery plan, every
// unreliable-edge coin, every crash time — then replays -budget seeded
// perturbations of it (swapped delivery orders, re-jittered delays within
// Fack, flipped overlay coins, shifted or dropped crashes) on a parallel
// worker pool, deduplicating candidates by schedule fingerprint and
// classifying every outcome against the consensus properties. Exploration
// is deterministic given the scenario and -searchseed.
//
//	amacexplore -algo wpaxos -topo ring:9 -sched random -fack 4 -seed 4 \
//	            -crash midbroadcast -overlay chords -budget 512
//
// With -minimize the first violation (the base run's own, if it
// violates) is delta-debugged down to a minimal failing schedule: crashes
// dropped, unreliable deliveries pruned chunk-wise, the recorded suffix
// truncated, and the topology itself shrunk where the family allows —
// each reduction accepted only if the violation reproduces, and re-closed
// into a complete schedule so the final artifact replays with zero
// divergence. -out FILE writes the winning artifact.
//
//	amacexplore -algo wpaxos -topo ring:9 -sched random -fack 4 -seed 4 \
//	            -crash midbroadcast -overlay chords -minimize -out stall.json
//
// With -grid the tool hunts a whole sweep grid instead of one scenario:
// the axes are exactly amacsim's sweep grammar (-algos, -topos, -scheds,
// -facks, -crashes, -overlays, -seeds — see cmd/amacsim; the two CLIs
// share the harness.AxisFlags helper), the grid sweeps with
// schedule-coverage fingerprints on, and the runs that violate a
// consensus property come back in their cells and go to the explorer: the
// first flagged run of each cell is re-recorded, optionally
// perturbation-searched (-budget > 0), optionally minimized (-minimize,
// parallel shrink), and written as an artifact into -artifacts DIR. The
// report (a JSON object with -json: cells, per-cell coverage, flagged
// counts, findings with artifact paths) says which delivery orderings
// each cell actually exercised (distinct schedule fingerprints) and
// -saturate K stops a cell early after K consecutive seeds add no new
// ordering. Campaigns are deterministic at any -workers width.
//
//	amacexplore -grid -algos wpaxos,floodpaxos -topos ring:9,grid:3x3 \
//	            -scheds random -facks 4 -crashes midbroadcast,one@3 \
//	            -overlays chords,extra:4@0.6 -seeds 8 -maxevents 200000 \
//	            -budget 0 -minimize -artifacts out/
//
// -maxevents sets the event cap on the scenario (with -grid, the grid) and
// artifacts record it; 0 keeps the simulator's one default (5 000 000),
// which amacsim runs under too, so both CLIs run the same execution. A
// negative cap is refused (exit 2).
//
// With -replay FILE the tool instead re-verifies a committed artifact:
// the schedule replays against its recorded scenario and the outcome is
// checked against the artifact's recorded violation (reproducing a
// recorded violation is success). -trace FILE additionally dumps the
// replay's full event trace as JSON Lines — the same format amacsim
// -trace emits, one trace.JSONLEvent per line — and -critpath prints the
// replay's decide-latency critical path (internal/critpath): the causal
// delivery chain behind the first decision with its latency attributed
// to algorithm phases and stalls. A replayed schedule reproduces the
// original execution exactly, so the breakdown is the one the recorded
// run had (with -json it rides along as "critical_path").
//
//	amacexplore -replay internal/harness/testdata/stall_twophase_coordinator_chords.json
//	amacexplore -replay stall.json -critpath
//
// Artifacts are indented JSON with this layout (explore.Artifact):
//
//	{"format": 1,
//	 "scenario": {"algo": …, "topo": …, "sched": …, "fack": …, "seed": …,
//	              "crashes": …, "overlay": …},
//	 "max_events": …,
//	 "schedule": {"fack": …, "deliver_p": …, "fallback_seed": …,
//	              "crashes": [{"node": …, "at": …}, …],
//	              "steps": [{"sender": …, "seq": …, "now": …, "nr": …,
//	                         "recv": [t | -1, …], "ack": …}, …]},
//	 "violation": {"kind": …, "errors": […], "quiescent": …, "events": …}}
//
// where steps[i].recv is positional (slot j < nr is the j-th reliable
// neighbor of sender, later slots are unreliable neighbors, -1 means not
// delivered) and all times are absolute virtual times.
//
// Exit status: explore and grid modes exit 1 when any violation was found
// (0 on a clean sweep); replay mode exits 1 when the artifact's outcome
// does not match its recorded violation (0 when it reproduces); usage and
// I/O errors exit 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/critpath"
	"github.com/absmac/absmac/internal/explore"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/sim"
	"github.com/absmac/absmac/internal/trace"
)

func main() {
	// Scenario flags (amacsim single-cell grammar).
	algo := flag.String("algo", "wpaxos", "algorithm: "+strings.Join(harness.Algorithms(), " | "))
	topo := flag.String("topo", "ring:9", "topology spec, e.g. clique:16, grid:4x4, random:24:0.1")
	sched := flag.String("sched", "random", "scheduler: "+strings.Join(harness.Schedulers(), " | "))
	fack := flag.Int64("fack", 4, "scheduler delivery bound Fack")
	seed := flag.Int64("seed", 1, "scenario seed (scheduler, algorithm, topology, crashes, overlay)")
	inputs := flag.String("inputs", "alternating", "input pattern: "+strings.Join(harness.InputPatterns(), " | "))
	crash := flag.String("crash", "none", "crash pattern name[@T]: "+strings.Join(harness.CrashPatterns(), " | "))
	overlay := flag.String("overlay", "none", "unreliable overlay family[:param][@Q]: "+strings.Join(harness.Overlays(), " | "))

	// Exploration flags (shared by -grid where noted).
	budget := flag.Int("budget", 256, "perturbed schedules to replay (with -grid: per flagged run; 0 skips the search)")
	searchSeed := flag.Int64("searchseed", 1, "seed for candidate generation (independent of the scenario seed)")
	maxEvents := flag.Int("maxevents", 0, "per-execution event cap, set on the scenario (with -grid: on the grid); capped undecided runs classify as non-termination (0 = the simulator's one default, 5000000; negative is an error)")
	minimize := flag.Bool("minimize", false, "delta-debug each violation down to a minimal failing schedule")
	out := flag.String("out", "", "write the found (minimized with -minimize) counterexample artifact to this file")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")

	// Campaign (grid) mode: the sweep-axis grammar is shared with
	// amacsim -sweep (harness.RegisterAxisFlags; includes -workers, which
	// also sizes explore mode's pool).
	gridMode := flag.Bool("grid", false, "campaign mode: sweep a whole grid and hunt every flagged cell")
	axes := harness.RegisterAxisFlags(flag.CommandLine, "grid")
	artifactDir := flag.String("artifacts", "", "grid: write one counterexample artifact per finding into this directory")
	saturate := flag.Int("saturate", 0, "grid: stop a cell after this many consecutive seeds add no new schedule fingerprint (0 = run all seeds)")

	// Replay mode.
	replay := flag.String("replay", "", "re-verify a committed artifact file instead of exploring")
	traceFile := flag.String("trace", "", "with -replay: dump the replay's event trace to this file as JSON Lines")
	critPath := flag.Bool("critpath", false, "with -replay: extract the decide-latency critical path of the replayed execution (phase breakdown + causal hop chain)")

	flag.Parse()

	// Per-mode stray-flag guards (shared helper with amacsim): flags have
	// no effect outside their mode; fail loudly rather than let the user
	// attribute results to a flag that was silently dropped.
	scenarioOnly := harness.NameSet([]string{"algo", "topo", "sched", "fack", "seed", "crash", "overlay"})
	// The mode flag itself is not "grid-only": -grid=false must select
	// explore mode, not trip its own stray-flag guard (flag.Visit sees
	// every explicitly-set flag, defaults included).
	gridOnly := harness.NameSet(axes.Names(), []string{"artifacts", "saturate"})
	delete(gridOnly, "workers") // -workers sizes every mode's pool

	if *replay != "" {
		// The artifact fixes the scenario and the schedule.
		replayOnly := map[string]bool{"replay": true, "trace": true, "critpath": true, "json": true}
		stray := harness.StrayFlags(flag.CommandLine, func(name string) bool { return !replayOnly[name] })
		if len(stray) > 0 {
			os.Exit(fail(fmt.Errorf("%s not allowed with -replay: the artifact carries the scenario, schedule and event cap", strings.Join(stray, ", "))))
		}
		os.Exit(runReplay(*replay, *traceFile, *critPath, *jsonOut))
	}
	if *traceFile != "" {
		os.Exit(fail(fmt.Errorf("-trace only applies with -replay")))
	}
	if *critPath {
		os.Exit(fail(fmt.Errorf("-critpath only applies with -replay")))
	}
	if *gridMode {
		stray := harness.StrayFlags(flag.CommandLine, func(name string) bool { return scenarioOnly[name] || name == "out" })
		if len(stray) > 0 {
			os.Exit(fail(fmt.Errorf("%s not allowed with -grid; use the sweep axes -algos/-topos/-scheds/-facks/-crashes/-overlays/-seeds (and -artifacts for output)", strings.Join(stray, ", "))))
		}
		grid, err := axes.Grid(*inputs)
		if err != nil {
			os.Exit(fail(err))
		}
		grid.MaxEvents = *maxEvents
		os.Exit(runGrid(grid, explore.CampaignOptions{
			Workers: *axes.Workers, Budget: *budget, SearchSeed: *searchSeed,
			Minimize: *minimize, SaturateAfter: *saturate, ArtifactDir: *artifactDir,
		}, *jsonOut))
	}
	stray := harness.StrayFlags(flag.CommandLine, func(name string) bool { return gridOnly[name] })
	if len(stray) > 0 {
		os.Exit(fail(fmt.Errorf("%s only apply with -grid", strings.Join(stray, ", "))))
	}
	t, err := harness.ParseTopo(*topo)
	if err != nil {
		os.Exit(fail(err))
	}
	sc := harness.Scenario{Algo: *algo, Topo: t, Inputs: *inputs, Sched: *sched, Fack: *fack, Seed: *seed,
		Crashes: *crash, Overlay: *overlay, MaxEvents: *maxEvents}
	os.Exit(runExplore(sc, explore.Options{Budget: *budget, Workers: *axes.Workers, Seed: *searchSeed}, *minimize, *out, *jsonOut))
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "amacexplore:", err)
	return 2
}

// exploreOutput is the -json schema of explore mode.
type exploreOutput struct {
	Report *explore.Report       `json:"report"`
	Shrink *explore.ShrinkResult `json:"shrink,omitempty"`
}

func runExplore(sc harness.Scenario, opts explore.Options, minimize bool, out string, jsonOut bool) int {
	rep, err := explore.Explore(sc, opts)
	if err != nil {
		return fail(err)
	}

	// Pick the violation to carry forward: the base run's own beats any
	// perturbed finding (it needs no perturbation to reproduce).
	var (
		kind      string
		schedule  = rep.BaseSchedule
		violation = rep.Base
	)
	if violation == nil && len(rep.Findings) > 0 {
		if schedule, violation, err = explore.CloseFinding(rep.Scenario, rep.Findings[0]); err != nil {
			return fail(err)
		}
	}
	if violation != nil {
		kind = violation.Kind
	}

	output := exploreOutput{Report: rep}
	artifact := &explore.Artifact{
		Format: explore.ArtifactFormat, Scenario: rep.Scenario,
		MaxEvents: rep.Scenario.MaxEvents, Schedule: schedule, Violation: violation,
		Note: fmt.Sprintf("amacexplore budget=%d searchseed=%d", opts.Budget, opts.Seed),
	}
	if minimize && violation != nil {
		res, err := explore.Shrink(rep.Scenario, schedule, kind, explore.ShrinkOptions{Workers: opts.Workers})
		if err != nil {
			return fail(err)
		}
		res.Artifact.Note = artifact.Note + " minimized"
		output.Shrink = res
		artifact = res.Artifact
	}
	if out != "" {
		if violation == nil {
			fmt.Fprintln(os.Stderr, "amacexplore: no violation found; not writing", out)
		} else if err := artifact.WriteFile(out); err != nil {
			return fail(err)
		}
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(output); err != nil {
			return fail(err)
		}
	} else {
		printReport(rep, output.Shrink, out, violation)
	}
	if violation != nil {
		return 1
	}
	return 0
}

func printReport(rep *explore.Report, shrink *explore.ShrinkResult, out string, violation *consensus.Violation) {
	fmt.Printf("scenario    %s on %s under %s (Fack=%d, seed=%d, crashes=%s, overlay=%s)\n",
		rep.Scenario.Algo, rep.Scenario.Topo, rep.Scenario.Sched, rep.Scenario.Fack, rep.Scenario.Seed,
		rep.Scenario.Crashes, rep.Scenario.Overlay)
	fmt.Printf("base run    %d steps, %d deliveries", rep.BaseSteps, rep.BaseDeliveries)
	if rep.Base != nil {
		fmt.Printf(" — VIOLATES (%s, %d events, quiescent=%v)", rep.Base.Kind, rep.Base.Events, rep.Base.Quiescent)
	}
	fmt.Println()
	s := rep.Stats
	fmt.Printf("search      %d replays (%d deduped, %d diverged): %d violating schedules\n",
		s.Replays, s.Deduped, s.Diverged, s.Violations)
	for i, f := range rep.Findings {
		if i == 5 {
			fmt.Printf("            … %d more\n", len(rep.Findings)-i)
			break
		}
		fmt.Printf("  finding   candidate %d: %s (%d steps, %d deliveries, diverged at %d)\n",
			f.Candidate, f.Violation.Kind, f.Steps, f.Deliveries, f.DivergedAt)
	}
	if shrink != nil {
		a := shrink.Artifact
		fmt.Printf("minimized   %d->%d steps, %d->%d deliveries, %d->%d crashes on %s (%d attempts)\n",
			shrink.FromSteps, len(a.Schedule.Steps), shrink.FromDeliveries, a.Schedule.Deliveries(),
			shrink.FromCrashes, len(a.Schedule.Crashes), a.Scenario.Topo, shrink.Attempts)
	}
	switch {
	case violation == nil:
		fmt.Println("verdict     no violation found")
	case out != "":
		fmt.Printf("verdict     %s violation; artifact written to %s\n", violation.Kind, out)
	default:
		fmt.Printf("verdict     %s violation (pass -out FILE to keep the artifact)\n", violation.Kind)
	}
}

func runGrid(grid harness.Grid, opts explore.CampaignOptions, jsonOut bool) int {
	if opts.ArtifactDir != "" {
		if err := os.MkdirAll(opts.ArtifactDir, 0o755); err != nil {
			return fail(err)
		}
	}
	rep, err := explore.Campaign(grid, opts)
	if err != nil {
		return fail(err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return fail(err)
		}
	} else {
		printCampaign(rep)
	}
	if rep.Flagged > 0 {
		fmt.Fprintf(os.Stderr, "amacexplore: %d flagged run(s) in %d cell(s)\n", rep.Flagged, rep.CellsFlagged)
		return 1
	}
	return 0
}

func printCampaign(rep *explore.CampaignReport) {
	distinct, saturated := 0, 0
	for _, c := range rep.Coverage {
		distinct += c.Distinct
		if c.Saturated {
			saturated++
		}
	}
	fmt.Printf("campaign    %d cells, %d runs, %d distinct schedules (%d cell(s) saturated early)\n",
		len(rep.Cells), rep.Runs, distinct, saturated)
	fmt.Printf("flagged     %d run(s) in %d cell(s)\n", rep.Flagged, rep.CellsFlagged)
	for _, f := range rep.Findings {
		c := &rep.Cells[f.Cell]
		fmt.Printf("  finding   cell %d (%s on %s under %s, crashes=%s, overlay=%s, seed=%d): %s, %d steps, %d deliveries",
			f.Cell, c.Algo, c.Topo, c.Sched, c.Crashes, c.Overlay, f.Scenario.Seed,
			f.Violation.Kind, f.Steps, f.Deliveries)
		if f.Minimized {
			fmt.Printf(" (minimized, %d attempts)", f.ShrinkAttempts)
		}
		fmt.Println()
		if f.ArtifactPath != "" {
			fmt.Printf("            artifact %s\n", f.ArtifactPath)
		}
	}
	if rep.Flagged == 0 {
		fmt.Println("verdict     no violation found")
	} else {
		fmt.Printf("verdict     %d counterexample(s) recorded\n", len(rep.Findings))
	}
}

// replayOutput is the -json schema of replay mode.
type replayOutput struct {
	Artifact   string               `json:"artifact"`
	Violation  *consensus.Violation `json:"violation,omitempty"`
	Recorded   *consensus.Violation `json:"recorded_violation,omitempty"`
	Diverged   bool                 `json:"diverged"`
	DivergedAt int                  `json:"diverged_at"`
	Reproduced bool                 `json:"reproduced"`
	// CritPath is the decide-latency critical path of the replayed
	// execution (-critpath; spans always sum to decide_time).
	CritPath *critpath.Report `json:"critical_path,omitempty"`
}

func runReplay(path, traceFile string, critPath, jsonOut bool) int {
	a, err := explore.ReadFile(path)
	if err != nil {
		return fail(err)
	}
	var rec *trace.Recorder
	var observers []func(sim.Event)
	if traceFile != "" {
		rec = trace.New()
		observers = append(observers, rec.Observer())
	}
	var coll *critpath.Collector
	if critPath {
		coll = critpath.NewCollector(critpath.ClassifierFor(a.Scenario.Algo))
		observers = append(observers, coll.Observer())
	}
	out, rp, err := a.Replay(harness.ChainObservers(observers...))
	if err != nil {
		return fail(err)
	}
	if rec != nil {
		f, err := os.Create(traceFile)
		if err != nil {
			return fail(err)
		}
		if err := rec.DumpJSONL(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}

	got := out.Violation()
	// Reproduction: a clean replay (no divergence — the schedule fully
	// drove the run) whose violation kind matches what the artifact
	// recorded (both nil for a healthy artifact).
	reproduced := !rp.Diverged() &&
		((got == nil) == (a.Violation == nil)) &&
		(got == nil || got.Kind == a.Violation.Kind)
	o := replayOutput{
		Artifact: path, Violation: got, Recorded: a.Violation,
		Diverged: rp.Diverged(), DivergedAt: rp.DivergedAt(), Reproduced: reproduced,
	}
	if coll != nil {
		o.CritPath = coll.Extract()
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(o); err != nil {
			return fail(err)
		}
	} else {
		fmt.Printf("artifact    %s\n", path)
		fmt.Printf("scenario    %s on %s under %s (seed=%d, crashes=%s, overlay=%s)\n",
			a.Scenario.Algo, a.Scenario.Topo, a.Scenario.Sched, a.Scenario.Seed, a.Scenario.Crashes, a.Scenario.Overlay)
		fmt.Printf("schedule    %d steps, %d deliveries, %d crashes\n",
			len(a.Schedule.Steps), a.Schedule.Deliveries(), len(a.Schedule.Crashes))
		fmt.Printf("replay      diverged=%v events=%d quiescent=%v\n", rp.Diverged(), out.Result.Events, out.Result.Quiescent)
		if got != nil {
			fmt.Printf("violation   %s: %v\n", got.Kind, got.Errors)
		} else {
			fmt.Println("violation   none")
		}
		if o.CritPath != nil {
			if err := o.CritPath.WriteText(os.Stdout); err != nil {
				return fail(err)
			}
		}
		if reproduced {
			fmt.Println("verdict     artifact reproduces")
		} else {
			fmt.Println("verdict     MISMATCH: replay does not reproduce the recorded outcome")
		}
	}
	if !reproduced {
		return 1
	}
	return 0
}
