// Command amacsim runs consensus executions in the abstract MAC layer
// simulator — one execution by default, a parallel scenario sweep with
// -sweep. All construction goes through internal/harness, so the
// algorithm, topology, input, scheduler, crash-pattern and overlay names
// accepted here are exactly the harness registries.
//
// Single-cell examples:
//
//	amacsim -algo twophase -topo clique:16 -sched random -fack 8
//	amacsim -algo wpaxos -topo grid:5x5 -sched maxdelay -fack 4
//	amacsim -algo floodpaxos -topo starlines:8x3 -sched sync -v
//	amacsim -algo floodpaxos -topo ring:9 -sched random -fack 4 \
//	        -crash midbroadcast -overlay chords@0.8
//
// In single-cell mode, -trace FILE dumps the full event trace as JSON
// Lines (one trace.JSONLEvent per line — the same format amacexplore's
// replay traces use; -v keeps printing the human-readable trace to
// stdout), and -record FILE records the execution's schedule — every
// delivery plan, unreliable-edge coin and crash time — as a replayable
// counterexample artifact for `amacexplore -replay` / `-minimize` (see
// cmd/amacexplore for the artifact format):
//
//	amacsim -algo wpaxos -topo ring:9 -sched random -fack 4 -seed 4 \
//	        -crash midbroadcast -overlay chords -record stall.json
//	amacexplore -replay stall.json
//
// -metrics turns on the flight-recorder registry (internal/metrics) and
// works in both modes. In single-cell mode it prints the registry's
// name-sorted text dump after the run, followed by the decide-latency
// critical path (internal/critpath): the causal delivery chain from the
// first broadcast to the first decision, with the latency attributed to
// algorithm phases and stalls. In sweep mode it adds an aggregated
// "metrics" array to every JSON cell (counters summed, gauge high-water
// marks maxed, across all runs of the cell); without the flag the sweep
// output is byte-identical to a build without the metrics layer, and the
// engine's hot path stays allocation-free.
//
// Sweep mode expands the cross product of comma-separated axes and runs it
// on a GOMAXPROCS-wide worker pool, aggregating each (algo, topo, inputs,
// sched, fack, crashes, overlay) cell over all seeds:
//
//	amacsim -sweep -algos wpaxos,floodpaxos -topos clique:8,grid:3x3 \
//	        -scheds sync,random -facks 2,8 -seeds 8 -json
//	amacsim -sweep -algos floodpaxos -topos ring:9 -scheds random -facks 4 \
//	        -crashes one@0,midbroadcast -overlays randomextra:0.25,chords \
//	        -seeds 8
//
// Sweep grammar:
//
//   - -algos, -scheds, -inputs: comma-separated registry names
//     (algorithms: anonflood | benor | floodpaxos | gatherall | twophase |
//     waitall | wpaxos;
//     schedulers: sync | random | maxdelay | edgeorder;
//     inputs: alternating | zeros | ones | half).
//   - -topos: comma-separated topology specs — clique:N, line:N, ring:N,
//     star:N, grid:RxC, tree:BxD, starlines:AxL, random:N:P,
//     expander:N:D (seeded random D-regular; needs 3 <= D < N, N*D
//     even), pods:P:K:C (P ring-pods of K nodes joined by C cross
//     links per pod). The two seeded sparse families are degree-bounded
//     and built for large n — expander:4096:8 and pods:64:64:4 sweep
//     comfortably.
//   - -facks: comma-separated positive integers.
//   - -crashes: comma-separated crash patterns, grammar name[@T] — none,
//     one@T (highest-index node crashes at T), maxid@T (alias of one@T:
//     that node carries the maximum id, so crashing it kills the stable
//     leader of a max-id election), coordinator (node 0 crashes at
//     Fack), midbroadcast (node 0 crashes at max(1, Fack/2),
//     inside its first broadcast window: the Theorem 3.2 crash),
//     minorityrand (a seeded random minority at seeded random times in
//     [0, 4*Fack]). Default none.
//   - -overlays: comma-separated overlay families building the unreliable
//     dual graph (Kuhn–Lynch–Newport model variant), grammar
//     family[:param][@Q] — none, randomextra:P (a seeded random
//     P-fraction of the non-edges; same density every seed), extra:K
//     (K random non-edges), chords (antipodal chords). Q in [0,1] is the
//     delivery probability (default 0.5): the scenario's scheduler is
//     wrapped in the lossy adapter so overlay edges carry messages.
//     Default none.
//   - -seeds: a replication count; seeds 1..k run for every cell.
//
// Sweep mode also accepts -cpuprofile FILE and -memprofile FILE, which
// write pprof CPU and heap profiles covering the whole sweep (worker pool
// included) — the starting point for any wall-clock investigation:
//
//	amacsim -sweep -topos expander:4096:8 -scheds random -seeds 4 \
//	        -cpuprofile cpu.out && go tool pprof cpu.out
//
// With -json the sweep emits a JSON array of cell objects:
//
//	[{"algo": "wpaxos", "topo": "grid:3x3", "inputs": "alternating",
//	  "sched": "random", "crashes": "one@0", "overlay": "extra:4",
//	  "fack": 8, "effective_fack": 8, "n": 9, "diameter": 4,
//	  "runs": 8, "correct": 8, "undecided": 0,
//	  "decide_time": {"min": …, "median": …, "mean": …, "p95": …, "max": …},
//	  "decide_per_fack": …,
//	  "survivor_decide_time": {…}, "faults": {…},
//	  "terminated_despite_faults": 8,
//	  "broadcasts": {…}, "deliveries": {…},
//	  "errors": ["…"]}, …]
//
// where decide_time summarizes per-run decision latency over the runs
// that decided (undecided counts the rest), survivor_decide_time is the
// same latency restricted to nodes that survived the run (the meaningful
// number under crash patterns), faults summarizes the per-run crashed-node
// count, terminated_despite_faults counts runs with at least one crash in
// which every survivor still decided, fack is the requested axis value
// while effective_fack is the bound the scheduler actually declared (they
// differ for edgeorder, whose bound is structural) and normalizes
// decide_per_fack, diameter is the median topology diameter across seeds
// (seed-dependent only for the seeded families random:N:P, expander:N:D
// and pods:P:K:C), broadcasts/deliveries summarize
// MAC-layer message counts, and errors lists the distinct consensus
// violations seen in the cell (absent when none). Consensus properties are
// judged over survivors: a crashed node owes nothing. Without -json the
// same cells render as an aligned text table. Exit status 1 when any run
// violates a consensus property.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/critpath"
	"github.com/absmac/absmac/internal/explore"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/metrics"
	"github.com/absmac/absmac/internal/sim"
	"github.com/absmac/absmac/internal/trace"
)

func main() {
	// Single-cell flags.
	algo := flag.String("algo", "wpaxos", "algorithm: "+strings.Join(harness.Algorithms(), " | "))
	topo := flag.String("topo", "line:8", "topology spec, e.g. clique:16, grid:4x4, random:24:0.1")
	sched := flag.String("sched", "random", "scheduler: "+strings.Join(harness.Schedulers(), " | "))
	fack := flag.Int64("fack", 4, "scheduler delivery bound Fack")
	seed := flag.Int64("seed", 1, "random seed (scheduler, algorithm, random topology, crashes, overlay)")
	inputs := flag.String("inputs", "alternating",
		"input pattern (comma-separated list in sweep mode): "+strings.Join(harness.InputPatterns(), " | "))
	crash := flag.String("crash", "none", "crash pattern name[@T]: "+strings.Join(harness.CrashPatterns(), " | "))
	overlay := flag.String("overlay", "none", "unreliable overlay family[:param][@Q]: "+strings.Join(harness.Overlays(), " | "))
	verbose := flag.Bool("v", false, "print the full event trace (single-cell mode only)")
	metricsOn := flag.Bool("metrics", false, "flight-recorder metrics: print the registry and the decide-latency critical path after a single run, or add aggregated per-cell metric rows to sweep output")
	traceFile := flag.String("trace", "", "dump the full event trace to this file as JSON Lines (single-cell mode only)")
	recordFile := flag.String("record", "", "record the execution's schedule to this counterexample artifact file (single-cell mode only; replay with amacexplore -replay)")

	// Sweep flags: the axis grammar is shared with amacexplore -grid
	// (harness.RegisterAxisFlags), so both CLIs accept identical sweeps.
	sweep := flag.Bool("sweep", false, "run a scenario sweep instead of a single execution")
	axes := harness.RegisterAxisFlags(flag.CommandLine, "sweep")
	jsonOut := flag.Bool("json", false, "sweep: emit JSON instead of a text table")
	prof := harness.RegisterProfileFlags(flag.CommandLine)
	flag.Parse()

	// Flags have no effect outside their mode; fail loudly rather than
	// let the user attribute results to a flag that was dropped.
	// (-metrics is deliberately in neither set: it means something in both
	// modes.)
	singleOnly := harness.NameSet([]string{"algo", "topo", "sched", "fack", "seed", "crash", "overlay", "v", "trace", "record"})
	sweepOnly := harness.NameSet(axes.Names(), []string{"json"}, prof.Names())
	stray := harness.StrayFlags(flag.CommandLine, func(name string) bool {
		if *sweep {
			return singleOnly[name]
		}
		return sweepOnly[name]
	})
	if len(stray) > 0 {
		if *sweep {
			os.Exit(fail(fmt.Errorf("%s not allowed in sweep mode; use -algos/-topos/-scheds/-facks/-crashes/-overlays/-seeds", strings.Join(stray, ", "))))
		}
		os.Exit(fail(fmt.Errorf("%s only apply with -sweep", strings.Join(stray, ", "))))
	}
	if *sweep {
		grid, err := axes.Grid(*inputs)
		if err != nil {
			os.Exit(fail(err))
		}
		stopProf, err := prof.Start()
		if err != nil {
			os.Exit(fail(err))
		}
		code := runSweep(grid, *axes.Workers, *jsonOut, *metricsOn)
		stopProf()
		os.Exit(code)
	}
	os.Exit(runSingle(*algo, *topo, *sched, *inputs, *crash, *overlay, *traceFile, *recordFile, *fack, *seed, *verbose, *metricsOn))
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "amacsim:", err)
	return 2
}

func runSingle(algo, topo, sched, inputs, crash, overlay, traceFile, recordFile string, fack, seed int64, verbose, metricsOn bool) int {
	t, err := harness.ParseTopo(topo)
	if err != nil {
		return fail(err)
	}
	sc := harness.Scenario{Algo: algo, Topo: t, Inputs: inputs, Sched: sched, Fack: fack, Seed: seed, Crashes: crash, Overlay: overlay}
	// Built once: the summary lines print facts (edge counts, the crash
	// schedule, the overlay graph) that Outcome does not carry, and the
	// same configuration is what the executor runs.
	cfg, err := sc.Config()
	if err != nil {
		return fail(err)
	}
	req := harness.Exec{Record: recordFile != ""}
	var observers []func(sim.Event)
	var rec *trace.Recorder
	if verbose || traceFile != "" {
		rec = trace.New()
		observers = append(observers, rec.Observer())
	}
	var coll *critpath.Collector
	if metricsOn {
		req.Metrics = metrics.New()
		coll = critpath.NewCollector(critpath.ClassifierFor(algo))
		observers = append(observers, coll.Observer())
	}
	req.Observer = harness.ChainObservers(observers...)
	out, _, schedule, err := harness.Execute(sc, cfg, req)
	if err != nil {
		return fail(err)
	}
	res, rep := out.Result, out.Report
	if recordFile != "" {
		// Write the recorded schedule as a replayable artifact (the escape
		// hatch into amacexplore -replay / -minimize). The recorded run is
		// byte-identical to an unrecorded one.
		artifact := &explore.Artifact{
			Format: explore.ArtifactFormat, Scenario: sc,
			Schedule: schedule, Violation: out.Violation(),
			Note: "amacsim -record",
		}
		if err := artifact.WriteFile(recordFile); err != nil {
			return fail(err)
		}
	}
	if rec != nil {
		if verbose {
			if err := rec.Dump(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "amacsim:", err)
			}
		}
		if traceFile != "" {
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
		fmt.Println("trace summary:", rec.Summary())
	}

	g, diameter := cfg.Graph, out.Diameter
	// Structural schedulers (edgeorder) override the requested bound, so
	// report and normalize by what the scheduler actually declared.
	fack = out.Fack
	fmt.Printf("algorithm   %s\n", algo)
	fmt.Printf("topology    %s (n=%d, m=%d, diameter=%d)\n", t, g.N(), g.M(), diameter)
	if cfg.Unreliable != nil {
		fmt.Printf("overlay     %s (%d unreliable edges)\n", overlay, cfg.Unreliable.M())
	}
	fmt.Printf("scheduler   %s (Fack=%d, seed=%d)\n", sched, fack, seed)
	if len(cfg.Crashes) > 0 {
		fmt.Printf("crashes     %s -> %v (%d crashed)\n", crash, cfg.Crashes, rep.Crashed)
	}
	fmt.Printf("decided     %v\n", res.AllDecided())
	if rep.SomeoneDecided {
		fmt.Printf("value       %d\n", rep.Value)
	}
	if rep.SurvivorDecideTime >= 0 {
		fmt.Printf("decide time %d (%.2f x Fack, %.2f x D*Fack; survivors)\n", rep.SurvivorDecideTime,
			float64(rep.SurvivorDecideTime)/float64(fack),
			float64(rep.SurvivorDecideTime)/float64(fack*int64(diameter+1)))
	} else {
		fmt.Println("decide time n/a (no survivor decided)")
	}
	fmt.Printf("traffic     %d broadcasts, %d deliveries, %d discards\n", res.Broadcasts, res.Deliveries, res.Discards)
	fmt.Printf("agreement   %v\nvalidity    %v\ntermination %v\n", rep.Agreement, rep.Validity, rep.Termination)
	if metricsOn {
		fmt.Println("\nmetrics:")
		if err := req.Metrics.WriteText(os.Stdout); err != nil {
			return fail(err)
		}
		fmt.Println()
		if err := coll.Extract().WriteText(os.Stdout); err != nil {
			return fail(err)
		}
	}
	if out.Violation() != nil {
		printErrors(res, rep)
		return 1
	}
	return 0
}

// printErrors reports a failed run in a few lines whatever n is: how many
// non-faulty nodes never decided (the report carries one error per such
// node) and the first eight errors.
func printErrors(res *sim.Result, rep *consensus.Report) {
	const show = 8
	var undecided []int
	for i, d := range res.Decided {
		if !d && !res.Crashed[i] {
			undecided = append(undecided, i)
		}
	}
	if k := len(undecided); k > 0 {
		fmt.Printf("undecided   %d of %d non-faulty nodes never decided (first ids: %v)\n",
			k, len(res.Decided)-rep.Crashed, undecided[:min(k, show)])
	}
	fmt.Printf("errors      %s", strings.Join(rep.Errors[:min(len(rep.Errors), show)], "; "))
	if more := len(rep.Errors) - show; more > 0 {
		fmt.Printf("; and %d more", more)
	}
	fmt.Println()
}

func runSweep(grid harness.Grid, workers int, jsonOut, metricsOn bool) int {
	// Expand to cell work-units and sweep them directly: one worker runs
	// all seeds of a cell on one reusable engine, and workers share the
	// sweep's topology/diameter/overlay caches.
	work, err := grid.Cells()
	if err != nil {
		return fail(err)
	}
	cells, err := harness.SweepCellsOpts(work, harness.SweepOptions{Workers: workers, Metrics: metricsOn})
	if err != nil {
		return fail(err)
	}
	if !jsonOut {
		fmt.Printf("%d scenarios, %d cells\n\n", len(work)*len(grid.Seeds), len(cells))
	}
	bad, err := harness.Report(os.Stdout, cells, jsonOut)
	if err != nil {
		return fail(err)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "amacsim: %d cell(s) contain consensus violations\n", bad)
		return 1
	}
	return 0
}
