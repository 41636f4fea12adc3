// Command amacsim runs consensus executions in the abstract MAC layer
// simulator. One scenario — the eight flags -algo, -topo, -sched, -fack,
// -seed, -inputs, -crash, -overlay, plus the event cap -maxevents — is
// named the same way in every mode, and all construction goes through
// internal/harness, so the names accepted here are exactly the harness
// registries. -sweep and -grid take -seeds in place of -seed and read the
// other seven as comma-separated lists, one sweep axis each, so a bare
// `amacsim -sweep` sweeps the scenario a bare `amacsim` runs. The command
// has seven modes; setting two is exit 2, and a mode flag given as =false
// or "" selects nothing:
//
//	amacsim [scenario]             one execution (the default)
//	amacsim -sweep [scenario]      a parallel scenario sweep
//	amacsim -explore [scenario]    schedule-space search of one scenario
//	amacsim -grid [scenario]       the same search over a whole sweep grid
//	amacsim -replay FILE           re-verify a counterexample artifact
//	amacsim -claims ID|all [-q]    the paper's claims as tables, E1..E12
//	amacsim -canonical             the canonical grid, swept as -sweep does
//
// Each mode accepts only its own flags (the modes table in main.go); any
// other flag is exit 2 rather than an option silently dropped. -sweep,
// -claims and -canonical take -cpuprofile FILE and -memprofile FILE,
// which profile the whole run, worker pool included.
//
// # Single run
//
//	amacsim -algo twophase -topo clique:16 -sched random -fack 8
//	amacsim -algo floodpaxos -topo ring:9 -sched random -fack 4 \
//	        -crash midbroadcast -overlay chords@0.8
//
// It prints the run's facts and the agreement/validity/termination
// verdict. -v prints the full event trace; -trace FILE dumps it as JSON
// Lines (one trace.JSONLEvent per line); -record FILE writes the run's
// schedule — every delivery plan, unreliable-edge coin and crash time —
// as a counterexample artifact that -replay re-verifies; -metrics prints
// the flight-recorder registry (internal/metrics) and the decide-latency
// critical path (internal/critpath): the causal delivery chain from the
// first broadcast to the first decision, attributed to algorithm phases
// and stalls.
//
// # Sweep
//
// -sweep expands the cross product of the comma-separated lists -algo,
// -topo, -inputs, -sched, -fack, -crash and -overlay over seeds
// 1..-seeds, runs it on a -workers-wide pool (0 = GOMAXPROCS) and
// aggregates each cell over its seeds, as a text table or, with -json, an
// array of cell objects (harness.Cell: decide-time and traffic summaries,
// survivor decide time, faults, the distinct consensus violations).
// Properties are judged over survivors: a crashed node owes nothing.
// -metrics adds aggregated per-cell metric rows; without it the output is
// byte-identical to a build without the metrics layer.
//
//	amacsim -sweep -algo wpaxos,floodpaxos -topo clique:8,grid:3x3 \
//	        -sched sync,random -fack 2,8 -seeds 8 -json
//
// The other modes run one scenario: a list there is exit 2.
//
// Topology specs: clique:N, line:N, ring:N, star:N, grid:RxC, tree:BxD,
// starlines:AxL, random:N:P, expander:N:D, pods:P:K:C, and Figure 1's
// networks fig1a:D:N and fig1b:D:N (even D >= 6, n >= D) and Figure 2's
// K_D, kd:D (D >= 2). Algorithms, schedulers and crash patterns share the
// grammar name[@N]: anonflood@R and waitall@R set a round budget; gate@T
// is sync with the graph's unique highest-degree node silent until T;
// crash patterns none, one@T, maxid@T, coordinator, midbroadcast,
// minorityrand. Inputs cut: ones on the second component, by lowest index,
// that removing that node leaves. Overlays, family[:param][@Q]: none,
// randomextra:P, extra:K, chords, with Q the delivery probability (default
// 0.5). A bad name's error lists the registry.
//
// # Explore
//
// -explore records the scenario's base execution as a sim.Schedule, then
// replays -budget seeded perturbations of it (swapped delivery orders,
// re-jittered delays within Fack, flipped overlay coins, shifted or
// dropped crashes) on a parallel pool, deduplicated by schedule
// fingerprint and deterministic given the scenario and -searchseed.
// The violation carried forward is the most severe one found
// (consensus.Severity's order); among equals the base run's own wins,
// then the earliest candidate; -budget 0 carries the base run's own.
// -minimize delta-debugs it down to a minimal failing schedule (crashes
// dropped, unreliable deliveries pruned, the suffix truncated, the
// topology shrunk where the family allows), each step re-verified;
// -out FILE writes the artifact.
//
//	amacsim -explore -algo twophase -topo ring:9 -sched random -fack 4 -seed 4 \
//	        -crash coordinator -overlay chords -maxevents 200000 \
//	        -budget 0 -minimize -out stall.json
//
// # Grid
//
// -grid sweeps the axes as -sweep does and hands each cell's first flagged
// run to the same counterexample path as -explore (-budget, -searchseed,
// -minimize), writing one artifact per finding into -artifacts DIR.
// Campaigns are deterministic at any -workers width.
//
//	amacsim -grid -algo wpaxos,floodpaxos -topo ring:9,grid:3x3 \
//	        -sched random -fack 4 -crash midbroadcast,one@3 \
//	        -overlay chords,extra:4@0.6 -seeds 8 -maxevents 200000 \
//	        -budget 0 -minimize -artifacts out/
//
// -maxevents sets the cap on the scenario or grid, and -record, -out and
// -artifacts write it into the artifact; 0 keeps the simulator's one
// default (5 000 000) and a negative cap is exit 2.
//
// # Replay
//
// -replay FILE replays the artifact's schedule against its recorded
// scenario and cap, and checks the outcome against the recorded
// violation (reproducing it is success). -trace FILE dumps the replay's
// event trace as -trace does for a single run; -critpath prints its
// decide-latency critical path, which is the recorded run's (with -json
// it rides along as "critical_path").
//
//	amacsim -replay internal/harness/testdata/stall_twophase_coordinator_chords.json -critpath
//
// # Claims
//
// -claims all prints one table per entry of internal/exp's Index, E1..E12,
// one per theorem, figure or complexity claim of the paper, each with its
// pass/fail shape check; internal/exp/testdata/experiments.golden is that
// output. -claims E6 runs one entry, and -q prints only each claim's
// summary line. E2–E12 run on the harness executor; E1 is
// internal/lowerbound's valid-step explorer.
//
// # Canonical grid
//
// -canonical sweeps harness.CanonicalGrids — every registered algorithm
// and topology family, crossed with the scheduler, Fack, crash and
// overlay axes over 8 seeds — on the -sweep path, with -json and
// -workers.
//
// # Artifact format
//
// Artifacts are indented JSON (explore.Artifact):
//
//	{"format": 1,
//	 "scenario": {"algo": …, "topo": …, "inputs": …, "sched": …, "fack": …,
//	              "seed": …, "crashes": …, "overlay": …},
//	 "max_events": …,
//	 "schedule": {"fack": …, "deliver_p": …, "fallback_seed": …,
//	              "crashes": [{"node": …, "at": …}, …],
//	              "steps": [{"sender": …, "seq": …, "now": …, "nr": …,
//	                         "recv": [t | -1, …], "ack": …}, …]},
//	 "violation": {"kind": …, "errors": […], "quiescent": …, "events": …},
//	 "note": …}
//
// where steps[i].recv is positional (slot j < nr is the j-th reliable
// neighbor of sender, later slots are unreliable neighbors, -1 means not
// delivered) and all times are absolute virtual times.
//
// # Exit status
//
// 0 on success; 1 when a single run, sweep, search, campaign or the
// canonical grid found a consensus violation, a replay did not reproduce
// its artifact's recorded outcome, or a claim failed its shape check; 2 on
// usage and I/O errors, including a negative -budget or -workers and a
// profile that cannot be written.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/critpath"
	"github.com/absmac/absmac/internal/exp"
	"github.com/absmac/absmac/internal/explore"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/metrics"
	"github.com/absmac/absmac/internal/sim"
	"github.com/absmac/absmac/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A mode is one way to run the command: the flag that selects it (its
// name; the single run has none), the flags it accepts besides the mode
// selectors, and what it runs. A run reports whether it found a violation
// (exit 1; see Exit status) or failed (exit 2).
type mode struct {
	name  string
	flags string
	run   func(*cli) (violated bool, err error)
}

var modes = []mode{
	{"single", "algo topo sched fack seed inputs crash overlay maxevents v metrics trace record", (*cli).runSingle},
	{"sweep", "algo topo sched fack inputs crash overlay seeds workers maxevents json metrics cpuprofile memprofile", (*cli).runSweep},
	{"explore", "algo topo sched fack seed inputs crash overlay maxevents budget searchseed minimize out json workers", (*cli).runExplore},
	{"grid", "algo topo sched fack inputs crash overlay seeds workers maxevents budget searchseed minimize artifacts json", (*cli).runGrid},
	{"replay", "trace critpath json", (*cli).runReplay},
	{"claims", "q cpuprofile memprofile", (*cli).runClaims},
	{"canonical", "json workers cpuprofile memprofile", (*cli).runCanonical},
}

// cli holds the parsed flags of one invocation and where it writes.
type cli struct {
	stdout, stderr io.Writer

	algo, topo, sched, fack, inputs, crash, overlay string
	seed, searchSeed                                int64
	maxEvents, budget, seeds, workers               int

	replay, claims                                string
	verbose, metrics, json, minimize, crit, quiet bool
	trace, record, out, artifacts                 string
	cpuProfile, memProfile                        string
}

// run is the command: it parses args, picks the one mode they select and
// runs it, returning the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("amacsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c.bind(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	m, chosen := modes[0], 0
	for _, md := range modes[1:] {
		if v := fs.Lookup(md.name).Value.(flag.Getter).Get(); v != false && v != "" {
			m, chosen = md, chosen+1
		}
	}
	if chosen > 1 {
		var names []string
		for _, md := range modes[1:] {
			names = append(names, "-"+md.name)
		}
		last := len(names) - 1
		return fail(stderr, fmt.Errorf("%s and %s are separate modes; choose one", strings.Join(names[:last], ", "), names[last]))
	}
	allowed := map[string]bool{}
	for _, md := range modes {
		allowed[md.name] = true // a mode flag set to false selects nothing
	}
	for _, name := range strings.Fields(m.flags) {
		allowed[name] = true
	}
	// Visit is lexical, so the message is deterministic.
	var stray []string
	fs.Visit(func(f *flag.Flag) {
		if !allowed[f.Name] {
			stray = append(stray, "-"+f.Name)
		}
	})
	if len(stray) > 0 {
		return fail(stderr, fmt.Errorf("%s not allowed in %s mode, which takes -%s",
			strings.Join(stray, ", "), m.name, strings.Join(strings.Fields(m.flags), " -")))
	}
	// The library reads a count <= 0 as "the default" or "none"; a
	// negative one on the command line is a typo, not a request.
	for _, name := range []string{"budget", "workers"} {
		if v := fs.Lookup(name).Value.(flag.Getter).Get().(int); v < 0 {
			return fail(stderr, fmt.Errorf("-%s %d is negative", name, v))
		}
	}
	stopProf, err := startProfile(c.cpuProfile, c.memProfile)
	if err != nil {
		return fail(stderr, err)
	}
	violated, err := m.run(c)
	if err = errors.Join(err, stopProf()); err != nil {
		return fail(stderr, err)
	}
	if violated {
		return 1
	}
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "amacsim:", err)
	return 2
}

// bind defines every flag of every mode on fs, each once.
func (c *cli) bind(fs *flag.FlagSet) {
	// The scenario axes (see grid).
	const list = " (a comma-separated list with -sweep and -grid)"
	fs.StringVar(&c.algo, "algo", "wpaxos", "algorithm"+list+": "+strings.Join(harness.Algorithms(), " | "))
	fs.StringVar(&c.topo, "topo", "line:8", "topology spec"+list+", e.g. clique:16, grid:4x4, random:24:0.1")
	fs.StringVar(&c.sched, "sched", "random", "scheduler"+list+": "+strings.Join(harness.Schedulers(), " | "))
	fs.StringVar(&c.fack, "fack", "4", "scheduler delivery bound Fack, an integer"+list)
	fs.StringVar(&c.inputs, "inputs", "alternating", "input pattern"+list+": "+strings.Join(harness.InputPatterns(), " | "))
	fs.StringVar(&c.crash, "crash", "none", "crash pattern name[@T]"+list+": "+strings.Join(harness.CrashPatterns(), " | "))
	fs.StringVar(&c.overlay, "overlay", "none", "unreliable overlay family[:param][@Q]"+list+": "+strings.Join(harness.Overlays(), " | "))
	fs.Int64Var(&c.seed, "seed", 1, "scenario seed (scheduler, algorithm, topology, crashes, overlay)")
	fs.IntVar(&c.maxEvents, "maxevents", 0, "per-execution event cap; capped undecided runs classify as non-termination (0 = the simulator's one default, 5000000; negative is an error)")

	fs.Bool("sweep", false, "sweep the cross product of the scenario flags' comma-separated lists")
	fs.Bool("explore", false, "search the scenario's schedule space for consensus violations")
	fs.Bool("grid", false, "campaign mode: sweep as -sweep does and hunt every flagged cell")
	fs.StringVar(&c.replay, "replay", "", "re-verify this counterexample artifact file")
	fs.StringVar(&c.claims, "claims", "", "print the paper's claims as tables: one experiment id (E1..E12) or all")
	fs.Bool("canonical", false, "sweep the canonical grid (harness.CanonicalGrids)")

	fs.BoolVar(&c.verbose, "v", false, "print the full event trace")
	fs.BoolVar(&c.metrics, "metrics", false, "flight-recorder metrics: print the registry and the decide-latency critical path after a single run, or add aggregated per-cell metric rows to sweep output")
	fs.StringVar(&c.trace, "trace", "", "dump the full event trace (with -replay, the replay's) to this file as JSON Lines")
	fs.StringVar(&c.record, "record", "", "record the run's schedule to this counterexample artifact file (re-verify it with -replay)")
	fs.BoolVar(&c.json, "json", false, "emit JSON instead of text")
	fs.IntVar(&c.seeds, "seeds", 8, "with -sweep and -grid: seeds 1..k per cell")
	fs.IntVar(&c.workers, "workers", 0, "worker pool width (0 = GOMAXPROCS)")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file on exit")

	fs.IntVar(&c.budget, "budget", 256, "perturbed schedules to replay around the base run (with -grid: around each cell's first flagged run); 0 skips the search")
	fs.Int64Var(&c.searchSeed, "searchseed", 1, "seed for candidate generation (independent of the scenario seed)")
	fs.BoolVar(&c.minimize, "minimize", false, "delta-debug each violation down to a minimal failing schedule")
	fs.StringVar(&c.out, "out", "", "write the found (minimized with -minimize) counterexample artifact to this file")
	fs.StringVar(&c.artifacts, "artifacts", "", "write one counterexample artifact per finding into this directory")
	fs.BoolVar(&c.crit, "critpath", false, "print the replayed execution's decide-latency critical path (phase breakdown + causal hop chain)")
	fs.BoolVar(&c.quiet, "q", false, "print only the summary line per claim")
}

// grid assembles the scenario flags into a grid over seeds: -algo, -topo,
// -sched, -fack, -inputs, -crash and -overlay each give a comma-separated
// list of the axis's entries. Topology and Fack entries are parsed here,
// so a syntax error surfaces before anything runs; unknown names and empty
// axes are left to Grid.Cells and the registries, which report them in a
// deterministic order.
func (c *cli) grid(seeds []int64) (harness.Grid, error) {
	grid := harness.Grid{
		Algos:     splitList(c.algo),
		Scheds:    splitList(c.sched),
		Inputs:    splitList(c.inputs),
		Crashes:   splitList(c.crash),
		Overlays:  splitList(c.overlay),
		Seeds:     seeds,
		MaxEvents: c.maxEvents,
	}
	for _, s := range splitList(c.topo) {
		t, err := harness.ParseTopo(s)
		if err != nil {
			return harness.Grid{}, err
		}
		grid.Topos = append(grid.Topos, t)
	}
	for _, s := range splitList(c.fack) {
		f, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return harness.Grid{}, fmt.Errorf("bad -fack entry %q: %w", s, err)
		}
		grid.Facks = append(grid.Facks, f)
	}
	return grid, nil
}

// scenario is the one execution of the single-run and explore modes: the
// grid at -seed, which must be a single cell.
func (c *cli) scenario() (harness.Scenario, error) {
	grid, err := c.grid([]int64{c.seed})
	if err != nil {
		return harness.Scenario{}, err
	}
	for _, axis := range []struct {
		flag string
		n    int
	}{
		{"algo", len(grid.Algos)}, {"topo", len(grid.Topos)}, {"inputs", len(grid.Inputs)}, {"sched", len(grid.Scheds)},
		{"fack", len(grid.Facks)}, {"crash", len(grid.Crashes)}, {"overlay", len(grid.Overlays)},
	} {
		if axis.n > 1 {
			return harness.Scenario{}, fmt.Errorf("-%s lists %d entries; only -sweep and -grid take lists", axis.flag, axis.n)
		}
	}
	cells, err := grid.Cells()
	if err != nil {
		return harness.Scenario{}, err
	}
	sc := cells[0].Base
	sc.Seed = c.seed
	return sc, nil
}

// splitList splits a comma-separated flag value, trimming blanks — the
// list grammar of every scenario axis.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// startProfile begins CPU profiling if cpu names a file and returns the
// stop function, which finishes the CPU profile, writes the heap profile
// if mem names a file, and returns the error of either: a profile that was
// asked for and not written is not a successful run.
func startProfile(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		cpuFile, err = os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		var cpuErr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				cpuErr = fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if mem == "" {
			return cpuErr
		}
		return errors.Join(cpuErr, writeHeapProfile(mem))
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	runtime.GC() // flush recent frees so the heap profile is settled
	if err := errors.Join(pprof.WriteHeapProfile(f), f.Close()); err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	return nil
}

// emit writes v as indented JSON with -json, and its text rendering
// otherwise.
func (c *cli) emit(v any, text func(w io.Writer) error) error {
	if !c.json {
		return text(c.stdout)
	}
	enc := json.NewEncoder(c.stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// observe returns what a single run or a replay watches its execution
// with: a trace recorder (-v, -trace) and a decide-latency critical-path
// collector (-metrics, -critpath), each nil unless asked for.
func observe(traced, critPath bool, algo string) (rec *trace.Recorder, coll *critpath.Collector, observer func(sim.Event)) {
	var fns []func(sim.Event)
	if traced {
		rec = trace.New()
		fns = append(fns, rec.Observer())
	}
	if critPath {
		coll = critpath.NewCollector(critpath.ClassifierFor(algo))
		fns = append(fns, coll.Observer())
	}
	return rec, coll, harness.ChainObservers(fns...)
}

// writeTrace dumps rec to path as JSON Lines; an empty path writes
// nothing.
func writeTrace(rec *trace.Recorder, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(rec.DumpJSONL(f), f.Close())
}

func (c *cli) runSingle() (bool, error) {
	sc, err := c.scenario()
	if err != nil {
		return false, err
	}
	// Built once: the summary lines print facts (edge counts, the crash
	// schedule, the overlay graph) that Outcome does not carry, and the
	// same configuration is what the executor runs.
	cfg, err := sc.Config()
	if err != nil {
		return false, err
	}
	rec, coll, observer := observe(c.verbose || c.trace != "", c.metrics, sc.Algo)
	req := harness.Exec{Record: c.record != "", Observer: observer}
	if c.metrics {
		req.Metrics = metrics.New()
	}
	out, _, schedule, err := harness.Execute(sc, cfg, req)
	if err != nil {
		return false, err
	}
	res, rep := out.Result, out.Report
	if c.record != "" {
		// The recorded run is byte-identical to an unrecorded one.
		artifact := &explore.Artifact{Format: explore.ArtifactFormat, Scenario: sc, MaxEvents: sc.MaxEvents,
			Schedule: schedule, Violation: out.Violation(), Note: "amacsim -record"}
		if err := artifact.WriteFile(c.record); err != nil {
			return false, err
		}
	}
	w := c.stdout
	if rec != nil {
		if c.verbose {
			if err := rec.Dump(w); err != nil {
				fmt.Fprintln(c.stderr, "amacsim:", err)
			}
		}
		if err := writeTrace(rec, c.trace); err != nil {
			return false, err
		}
		fmt.Fprintln(w, "trace summary:", rec.Summary())
	}

	// Structural schedulers (edgeorder) override the requested bound, so
	// report and normalize by what the scheduler actually declared.
	g, diameter, fack := cfg.Graph, out.Diameter, out.Fack
	fmt.Fprintf(w, "algorithm   %s\n", sc.Algo)
	fmt.Fprintf(w, "topology    %s (n=%d, m=%d, diameter=%d)\n", sc.Topo, g.N(), g.M(), diameter)
	if cfg.Unreliable != nil {
		fmt.Fprintf(w, "overlay     %s (%d unreliable edges)\n", sc.Overlay, cfg.Unreliable.M())
	}
	fmt.Fprintf(w, "scheduler   %s (Fack=%d, seed=%d)\n", sc.Sched, fack, sc.Seed)
	if len(cfg.Crashes) > 0 {
		fmt.Fprintf(w, "crashes     %s -> %v (%d crashed)\n", sc.Crashes, cfg.Crashes, rep.Crashed)
	}
	fmt.Fprintf(w, "decided     %v\n", rep.Termination)
	if rep.SomeoneDecided {
		fmt.Fprintf(w, "value       %d\n", rep.Value)
	}
	if rep.SurvivorDecideTime >= 0 {
		perDFack := "n/a" // a single node has no diameter to scale by
		if diameter > 0 {
			perDFack = fmt.Sprintf("%.2f", float64(rep.SurvivorDecideTime)/float64(fack*int64(diameter)))
		}
		fmt.Fprintf(w, "decide time %d (%.2f x Fack, %s x D*Fack; survivors)\n", rep.SurvivorDecideTime,
			float64(rep.SurvivorDecideTime)/float64(fack), perDFack)
	} else {
		fmt.Fprintln(w, "decide time n/a (no survivor decided)")
	}
	fmt.Fprintf(w, "traffic     %d broadcasts, %d deliveries, %d discards\n", res.Broadcasts, res.Deliveries, res.Discards)
	fmt.Fprintf(w, "agreement   %v\nvalidity    %v\ntermination %v\n", rep.Agreement, rep.Validity, rep.Termination)
	if c.metrics {
		fmt.Fprintln(w, "\nmetrics:")
		if err := req.Metrics.WriteText(w); err != nil {
			return false, err
		}
		fmt.Fprintln(w)
		if err := coll.Extract().WriteText(w); err != nil {
			return false, err
		}
	}
	violated := out.Violation() != nil
	if violated {
		printErrors(w, res, rep)
	}
	return violated, nil
}

// printErrors reports a failed run in a few lines whatever n is: how many
// non-faulty nodes never decided (the report carries one error per such
// node) and the first eight errors.
func printErrors(w io.Writer, res *sim.Result, rep *consensus.Report) {
	const show = 8
	var undecided []int
	for i, d := range res.Decided {
		if !d && !res.Crashed[i] {
			undecided = append(undecided, i)
		}
	}
	if k := len(undecided); k > 0 {
		fmt.Fprintf(w, "undecided   %d of %d non-faulty nodes never decided (first ids: %v)\n",
			k, len(res.Decided)-rep.Crashed, undecided[:min(k, show)])
	}
	fmt.Fprintf(w, "errors      %s", strings.Join(rep.Errors[:min(len(rep.Errors), show)], "; "))
	if more := len(rep.Errors) - show; more > 0 {
		fmt.Fprintf(w, "; and %d more", more)
	}
	fmt.Fprintln(w)
}

// seedRange is seeds 1..-seeds, the replication axis of -sweep and -grid.
func (c *cli) seedRange() []int64 {
	var seeds []int64
	for s := int64(1); s <= int64(c.seeds); s++ {
		seeds = append(seeds, s)
	}
	return seeds
}

func (c *cli) runSweep() (bool, error) {
	grid, err := c.grid(c.seedRange())
	if err != nil {
		return false, err
	}
	return c.sweep(grid)
}

func (c *cli) runCanonical() (bool, error) {
	return c.sweep(harness.CanonicalGrids()...)
}

// sweep expands the grids to cell work-units and sweeps them all at once:
// one worker runs all seeds of a cell on one reusable engine, and workers
// share the sweep's topology/diameter/overlay caches across the grids.
func (c *cli) sweep(grids ...harness.Grid) (bool, error) {
	var work []harness.CellWork
	runs := 0
	for _, g := range grids {
		units, err := g.Cells()
		if err != nil {
			return false, err
		}
		work = append(work, units...)
		runs += len(units) * len(g.Seeds)
	}
	cells, err := harness.SweepCellsOpts(work, harness.SweepOptions{Workers: c.workers, Metrics: c.metrics})
	if err != nil {
		return false, err
	}
	if !c.json {
		fmt.Fprintf(c.stdout, "%d scenarios, %d cells\n\n", runs, len(cells))
	}
	err = c.emit(cells, func(w io.Writer) error {
		_, err := io.WriteString(w, harness.Table(cells).Render())
		return err
	})
	bad := 0
	for i := range cells {
		if !cells[i].OK() {
			bad++
		}
	}
	if err == nil && bad > 0 {
		fmt.Fprintf(c.stderr, "amacsim: %d cell(s) contain consensus violations\n", bad)
	}
	return bad > 0, err
}

// runClaims runs the -claims entries of exp.Index and reports a claim
// that fails its shape check as violated.
func (c *cli) runClaims() (bool, error) {
	ran, failed := 0, 0
	for _, d := range exp.Index {
		if c.claims != "all" && d.ID != c.claims {
			continue
		}
		ran++
		e := d.Run()
		status := "PASS"
		if !e.OK {
			status, failed = "FAIL", failed+1
		}
		if c.quiet {
			fmt.Fprintf(c.stdout, "%-4s %s %s\n", e.ID, status, e.Title)
		} else {
			fmt.Fprintln(c.stdout, e.Render())
		}
	}
	if ran == 0 {
		return false, fmt.Errorf("no claim %q: -claims takes all or one of E1..E%d", c.claims, len(exp.Index))
	}
	if failed > 0 {
		fmt.Fprintf(c.stderr, "amacsim: %d claim(s) failed their shape checks\n", failed)
	}
	return failed > 0, nil
}

// exploreOutput is the -json schema of explore mode.
type exploreOutput struct {
	Report *explore.Report       `json:"report"`
	Shrink *explore.ShrinkResult `json:"shrink,omitempty"`
}

func (c *cli) runExplore() (bool, error) {
	sc, err := c.scenario()
	if err != nil {
		return false, err
	}
	opts := explore.Options{Budget: c.budget, Workers: c.workers, Seed: c.searchSeed}
	rep, artifact, shrink, err := explore.Counterexample(sc, opts, c.minimize)
	if err != nil {
		return false, err
	}
	// The artifact is nil when nothing violated.
	if artifact != nil {
		artifact.Note = fmt.Sprintf("amacsim -explore budget=%d searchseed=%d", opts.Budget, opts.Seed)
		if shrink != nil {
			artifact.Note += " minimized"
		}
	}
	if c.out != "" {
		if artifact == nil {
			fmt.Fprintln(c.stderr, "amacsim: no violation found; not writing", c.out)
		} else if err := artifact.WriteFile(c.out); err != nil {
			return false, err
		}
	}
	return artifact != nil, c.emit(exploreOutput{Report: rep, Shrink: shrink}, func(w io.Writer) error {
		printReport(w, rep, shrink, c.out, artifact)
		return nil
	})
}

func printReport(w io.Writer, rep *explore.Report, shrink *explore.ShrinkResult, out string, artifact *explore.Artifact) {
	fmt.Fprintf(w, "scenario    %s on %s under %s (Fack=%d, seed=%d, crashes=%s, overlay=%s)\n",
		rep.Scenario.Algo, rep.Scenario.Topo, rep.Scenario.Sched, rep.Scenario.Fack, rep.Scenario.Seed,
		rep.Scenario.Crashes, rep.Scenario.Overlay)
	fmt.Fprintf(w, "base run    %d steps, %d deliveries", rep.BaseSteps, rep.BaseDeliveries)
	if rep.Base != nil {
		fmt.Fprintf(w, " — VIOLATES (%s, %d events, quiescent=%v)", rep.Base.Kind, rep.Base.Events, rep.Base.Quiescent)
	}
	fmt.Fprintln(w)
	s := rep.Stats
	fmt.Fprintf(w, "search      %d replays (%d deduped, %d diverged): %d violating schedules\n",
		s.Replays, s.Deduped, s.Diverged, s.Violations)
	for i, f := range rep.Findings {
		if i == 5 {
			fmt.Fprintf(w, "            … %d more\n", len(rep.Findings)-i)
			break
		}
		fmt.Fprintf(w, "  finding   candidate %d: %s (%d steps, %d deliveries, diverged at %d)\n",
			f.Candidate, f.Violation.Kind, f.Steps, f.Deliveries, f.DivergedAt)
	}
	if shrink != nil {
		a := shrink.Artifact
		fmt.Fprintf(w, "minimized   %d->%d steps, %d->%d deliveries, %d->%d crashes on %s (%d attempts)\n",
			shrink.FromSteps, len(a.Schedule.Steps), shrink.FromDeliveries, a.Schedule.Deliveries(),
			shrink.FromCrashes, len(a.Schedule.Crashes), a.Scenario.Topo, shrink.Attempts)
	}
	switch {
	case artifact == nil:
		fmt.Fprintln(w, "verdict     no violation found")
	case out != "":
		fmt.Fprintf(w, "verdict     %s violation; artifact written to %s\n", artifact.Violation.Kind, out)
	default:
		fmt.Fprintf(w, "verdict     %s violation (pass -out FILE to keep the artifact)\n", artifact.Violation.Kind)
	}
}

func (c *cli) runGrid() (bool, error) {
	grid, err := c.grid(c.seedRange())
	if err != nil {
		return false, err
	}
	if c.artifacts != "" {
		if err := os.MkdirAll(c.artifacts, 0o755); err != nil {
			return false, err
		}
	}
	rep, err := explore.Campaign(grid, explore.CampaignOptions{
		Workers: c.workers, Budget: c.budget, SearchSeed: c.searchSeed,
		Minimize: c.minimize, ArtifactDir: c.artifacts,
	})
	if err != nil {
		return false, err
	}
	err = c.emit(rep, func(w io.Writer) error { printCampaign(w, rep); return nil })
	if err == nil && rep.Flagged > 0 {
		fmt.Fprintf(c.stderr, "amacsim: %d flagged run(s) in %d cell(s)\n", rep.Flagged, rep.CellsFlagged)
	}
	return rep.Flagged > 0, err
}

func printCampaign(w io.Writer, rep *explore.CampaignReport) {
	fmt.Fprintf(w, "campaign    %d cells, %d runs\n", len(rep.Cells), rep.Runs)
	fmt.Fprintf(w, "flagged     %d run(s) in %d cell(s)\n", rep.Flagged, rep.CellsFlagged)
	for _, f := range rep.Findings {
		c := &rep.Cells[f.Cell]
		fmt.Fprintf(w, "  finding   cell %d (%s on %s under %s, crashes=%s, overlay=%s, seed=%d): %s, %d steps, %d deliveries",
			f.Cell, c.Algo, c.Topo, c.Sched, c.Crashes, c.Overlay, f.Scenario.Seed,
			f.Violation.Kind, f.Steps, f.Deliveries)
		if f.Minimized {
			fmt.Fprintf(w, " (minimized, %d attempts)", f.ShrinkAttempts)
		}
		fmt.Fprintln(w)
		if f.ArtifactPath != "" {
			fmt.Fprintf(w, "            artifact %s\n", f.ArtifactPath)
		}
	}
	if rep.Flagged == 0 {
		fmt.Fprintln(w, "verdict     no violation found")
	} else {
		fmt.Fprintf(w, "verdict     %d counterexample(s) recorded\n", len(rep.Findings))
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

// runReplay reports a replay that does not reproduce its artifact's
// recorded outcome as violated.
func (c *cli) runReplay() (bool, error) {
	a, err := explore.ReadFile(c.replay)
	if err != nil {
		return false, err
	}
	rec, coll, observer := observe(c.trace != "", c.crit, a.Scenario.Algo)
	out, rp, err := a.Replay(observer)
	if err != nil {
		return false, err
	}
	if err := writeTrace(rec, c.trace); err != nil {
		return false, err
	}
	got := out.Violation()
	// Reproduction: a clean replay (no divergence — the schedule fully
	// drove the run) whose violation kind matches what the artifact
	// recorded (both nil for a healthy artifact).
	reproduced := !rp.Diverged() &&
		((got == nil) == (a.Violation == nil)) &&
		(got == nil || got.Kind == a.Violation.Kind)
	o := replayOutput{
		Artifact: c.replay, Violation: got, Recorded: a.Violation,
		Diverged: rp.Diverged(), DivergedAt: rp.DivergedAt(), Reproduced: reproduced,
	}
	if coll != nil {
		o.CritPath = coll.Extract()
	}
	return !reproduced, c.emit(o, func(w io.Writer) error {
		fmt.Fprintf(w, "artifact    %s\n", c.replay)
		fmt.Fprintf(w, "scenario    %s on %s under %s (seed=%d, crashes=%s, overlay=%s)\n",
			a.Scenario.Algo, a.Scenario.Topo, a.Scenario.Sched, a.Scenario.Seed, a.Scenario.Crashes, a.Scenario.Overlay)
		fmt.Fprintf(w, "schedule    %d steps, %d deliveries, %d crashes\n",
			len(a.Schedule.Steps), a.Schedule.Deliveries(), len(a.Schedule.Crashes))
		fmt.Fprintf(w, "replay      diverged=%v events=%d quiescent=%v\n", rp.Diverged(), out.Result.Events, out.Result.Quiescent)
		if got != nil {
			fmt.Fprintf(w, "violation   %s: %v\n", got.Kind, got.Errors)
		} else {
			fmt.Fprintln(w, "violation   none")
		}
		if o.CritPath != nil {
			if err := o.CritPath.WriteText(w); err != nil {
				return err
			}
		}
		if reproduced {
			fmt.Fprintln(w, "verdict     artifact reproduces")
		} else {
			fmt.Fprintln(w, "verdict     MISMATCH: replay does not reproduce the recorded outcome")
		}
		return nil
	})
}
