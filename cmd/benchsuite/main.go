// Command benchsuite prints every experiment table (one experiment per
// theorem/figure/complexity claim of the paper; internal/exp's Index is
// the index, E1..E12, and -only runs one entry of it) and, with -grid,
// runs the canonical scenario grid — every registered algorithm crossed
// with the topology, scheduler and Fack axes — in parallel through
// internal/harness. E4's wPAXOS control and E5–E12 run on the same
// harness executor as the grid; E1–E3 and E4's partition half are the
// lower-bound constructions of internal/lowerbound.
//
// The grid's topology zoo covers every registered family (grammar in
// cmd/amacsim's package doc): clique:N, line:N, ring:N, star:N, grid:RxC,
// tree:BxD, starlines:AxL, random:N:P, and the degree-bounded sparse
// families expander:N:D and pods:P:K:C at small parameters — their
// large-n shapes live in internal/sim's BenchmarkBroadcastPlanLarge tier
// and the CI large-n smoke instead.
//
// Usage:
//
//	benchsuite [-only E6] [-q]            experiments
//	benchsuite -grid [-json] [-workers N] full scenario grid
//
// Both modes accept -cpuprofile FILE and -memprofile FILE, writing pprof
// CPU and heap profiles over the whole run — experiments or grid, worker
// pool included — so a wall-clock investigation starts from a profile
// instead of a guess:
//
//	benchsuite -grid -cpuprofile cpu.out && go tool pprof cpu.out
//
// Exit status is non-zero when any experiment fails its shape check or any
// grid cell violates a consensus property.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/absmac/absmac/internal/exp"
	"github.com/absmac/absmac/internal/harness"
)

func main() {
	only := flag.String("only", "", "run a single experiment by id (e.g. E6)")
	quiet := flag.Bool("q", false, "print only the summary line per experiment")
	grid := flag.Bool("grid", false, "run the canonical scenario grid instead of the experiments")
	jsonOut := flag.Bool("json", false, "grid: emit JSON instead of a text table")
	workers := flag.Int("workers", 0, "grid: worker pool width (0 = GOMAXPROCS)")
	prof := harness.RegisterProfileFlags(flag.CommandLine)
	flag.Parse()

	// Flags have no effect outside their mode; fail loudly rather than
	// silently drop them.
	expOnly := map[string]bool{"only": true, "q": true}
	gridOnly := map[string]bool{"json": true, "workers": true}
	var stray []string
	flag.Visit(func(f *flag.Flag) {
		if (*grid && expOnly[f.Name]) || (!*grid && gridOnly[f.Name]) {
			stray = append(stray, "-"+f.Name)
		}
	})
	if len(stray) > 0 {
		if *grid {
			fmt.Fprintf(os.Stderr, "benchsuite: %s ignored with -grid\n", strings.Join(stray, ", "))
		} else {
			fmt.Fprintf(os.Stderr, "benchsuite: %s only apply with -grid\n", strings.Join(stray, ", "))
		}
		os.Exit(2)
	}

	// Profiling applies in both modes (-cpuprofile/-memprofile are
	// deliberately in neither stray set).
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(2)
	}
	var code int
	if *grid {
		code = runGrid(*workers, *jsonOut)
	} else {
		code = runExperiments(*only, *quiet)
	}
	stopProf()
	os.Exit(code)
}

func runExperiments(only string, quiet bool) int {
	failed := 0
	ran := 0
	for _, d := range exp.Index {
		if only != "" && d.ID != only {
			continue
		}
		ran++
		e := d.Run()
		if quiet {
			status := "PASS"
			if !e.OK {
				status = "FAIL"
			}
			fmt.Printf("%-4s %-4s %s\n", e.ID, status, e.Title)
		} else {
			fmt.Println(e.Render())
		}
		if !e.OK {
			failed++
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "benchsuite: no experiment matches -only=%s\n", only)
		return 2
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchsuite: %d experiment(s) failed their shape checks\n", failed)
		return 1
	}
	return 0
}

// canonicalGrids returns the full sweep: every algorithm on the single-hop
// topology, the multihop-capable algorithms across the topology zoo, and
// two fault grids exercising the crash-pattern and overlay axes.
// (Two-phase is a single-hop algorithm — Theorem 4.1 assumes a clique — so
// it does not appear in the multihop group; the defeated baselines
// anonflood and waitall appear in the single-hop group, where their
// diameter-derived round budgets are honest.)
func canonicalGrids() []harness.Grid {
	seeds := make([]int64, 8)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	singlehop := harness.Grid{
		Algos:  []string{"twophase", "wpaxos", "floodpaxos", "gatherall", "benor", "anonflood", "waitall"},
		Topos:  []harness.Topo{{Kind: "clique", N: 4}, {Kind: "clique", N: 8}},
		Scheds: []string{"sync", "random", "maxdelay"},
		Facks:  []int64{2, 8},
		Seeds:  seeds,
	}
	// The sparse families run here at small parameters so every registered
	// topology kind appears in the canonical grid
	// (TestCanonicalGridCoversEveryFamily; their large-n shapes —
	// expander:4096:8, pods:64:64:4 — belong to the bench tier and the CI
	// large-n smoke, not an 8-seed correctness grid).
	multihop := harness.Grid{
		Algos: []string{"wpaxos", "floodpaxos", "gatherall"},
		Topos: []harness.Topo{
			{Kind: "line", N: 8},
			{Kind: "ring", N: 9},
			{Kind: "star", N: 8},
			{Kind: "grid", Rows: 4, Cols: 4},
			{Kind: "tree", Branch: 2, Depth: 3},
			{Kind: "starlines", Arms: 4, ArmLen: 2},
			{Kind: "random", N: 16, P: 0.15},
			{Kind: "expander", N: 16, Deg: 4},
			{Kind: "pods", Pods: 4, PodSize: 4, Cross: 2},
		},
		Scheds: []string{"sync", "random", "maxdelay"},
		Facks:  []int64{2, 8},
		Seeds:  seeds,
	}
	// Crash patterns on the single-hop topology, restricted to the
	// crash-tolerant algorithms (twophase stalls without its coordinator
	// — that regime belongs to the lower-bound experiments, not the
	// always-green canonical grid; gatherall waits for n values, so any
	// start-time crash starves it).
	faultclique := harness.Grid{
		Algos:   []string{"wpaxos", "floodpaxos", "benor"},
		Topos:   []harness.Topo{{Kind: "clique", N: 8}},
		Scheds:  []string{"sync", "random"},
		Facks:   []int64{4},
		Crashes: []string{"one@0", "coordinator", "midbroadcast", "maxid@6"},
		Seeds:   seeds,
	}
	// Crash x overlay cross product on multihop topologies. With the Ω
	// failure detector (suspicion + rotation + retransmit-until-superseded)
	// both PAXOS variants survive every crash-pattern/overlay combination
	// here, including maxid@T — the stable leader dying after election has
	// settled.
	faultmultihop := harness.Grid{
		Algos:    []string{"wpaxos", "floodpaxos"},
		Topos:    []harness.Topo{{Kind: "ring", N: 9}, {Kind: "grid", Rows: 3, Cols: 3}},
		Scheds:   []string{"random"},
		Facks:    []int64{4},
		Crashes:  []string{"one@0", "midbroadcast", "maxid@6"},
		Overlays: []string{"none", "randomextra:0.25", "chords"},
		Seeds:    seeds,
	}
	return []harness.Grid{singlehop, multihop, faultclique, faultmultihop}
}

func runGrid(workers int, jsonOut bool) int {
	// Expand every grid to cell work-units and run them in one sweep, so
	// the topology/diameter/overlay caches are shared across all four
	// grids and each worker reuses one engine per cell. (The canonical
	// grids produce distinct cells — no two share every non-seed axis —
	// so concatenating their work-units is exactly the flat sweep.)
	var work []harness.CellWork
	runs := 0
	for _, g := range canonicalGrids() {
		expanded, err := g.Cells()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			return 2
		}
		work = append(work, expanded...)
		runs += len(expanded) * len(g.Seeds)
	}
	cells, err := harness.SweepCellsOpts(work, harness.SweepOptions{Workers: workers})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		return 2
	}
	if !jsonOut {
		fmt.Printf("canonical grid: %d scenarios, %d cells\n\n", runs, len(cells))
	}
	bad, err := harness.Report(os.Stdout, cells, jsonOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		return 2
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "benchsuite: %d cell(s) contain consensus violations\n", bad)
		return 1
	}
	return 0
}
