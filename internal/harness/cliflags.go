package harness

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// This file is the sweep-axis flag grammar of cmd/amacsim, whose -sweep
// and -grid modes accept the same -algos/-topos/-scheds/-facks/-crashes/
// -overlays/-seeds/-workers axes, plus the flag helpers the CLIs share.
// AxisFlags.Grid validates nothing beyond syntax — the semantic checks
// (unknown names, empty axes) happen in Grid.Cells and the registries, in
// their documented deterministic order.

// AxisFlags holds the sweep-axis flags. Register them on a FlagSet with
// RegisterAxisFlags; after parsing, Grid assembles the sweep grid. The
// -inputs axis is deliberately not registered here: the CLI's -inputs
// flag does double duty as the single scenario's input pattern, so its
// value goes to Grid explicitly.
type AxisFlags struct {
	Algos    *string
	Topos    *string
	Scheds   *string
	Facks    *string
	Crashes  *string
	Overlays *string
	Seeds    *int
	Workers  *int
}

// RegisterAxisFlags registers the sweep-axis flags on fs with the
// canonical defaults and usage strings.
func RegisterAxisFlags(fs *flag.FlagSet) *AxisFlags {
	return &AxisFlags{
		Algos:    fs.String("algos", "wpaxos", "sweep axis: comma-separated algorithms"),
		Topos:    fs.String("topos", "clique:8,grid:3x3", "sweep axis: comma-separated topology specs"),
		Scheds:   fs.String("scheds", "sync,random", "sweep axis: comma-separated schedulers"),
		Facks:    fs.String("facks", "4", "sweep axis: comma-separated Fack values"),
		Crashes:  fs.String("crashes", "none", "sweep axis: comma-separated crash patterns"),
		Overlays: fs.String("overlays", "none", "sweep axis: comma-separated overlay families"),
		Seeds:    fs.Int("seeds", 8, "sweep axis: seeds 1..k per cell"),
		Workers:  fs.Int("workers", 0, "worker pool width (0 = GOMAXPROCS)"),
	}
}

// Grid assembles the parsed axes into a sweep grid. inputs is the CLI's
// -inputs value (comma-separated pattern names; empty means the grid
// default). Topology and Fack entries are parsed here — syntax errors
// surface immediately, attributed to their flag — while axis-emptiness and
// registry-name validation stay in Grid.Cells and the scenario build,
// which report in a deterministic order regardless of axis contents.
func (a *AxisFlags) Grid(inputs string) (Grid, error) {
	grid := Grid{
		Algos:    splitList(*a.Algos),
		Scheds:   splitList(*a.Scheds),
		Inputs:   splitList(inputs),
		Crashes:  splitList(*a.Crashes),
		Overlays: splitList(*a.Overlays),
	}
	for _, s := range splitList(*a.Topos) {
		t, err := ParseTopo(s)
		if err != nil {
			return Grid{}, err
		}
		grid.Topos = append(grid.Topos, t)
	}
	for _, s := range splitList(*a.Facks) {
		f, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Grid{}, fmt.Errorf("bad -facks entry %q: %w", s, err)
		}
		grid.Facks = append(grid.Facks, f)
	}
	for s := int64(1); s <= int64(*a.Seeds); s++ {
		grid.Seeds = append(grid.Seeds, s)
	}
	return grid, nil
}

// splitList splits a comma-separated flag value, trimming blanks — the
// list grammar of every sweep axis.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// StrayFlags returns the names of flags that were explicitly set but are
// disallowed in the active mode, in the FlagSet's visit order (lexical, so
// the resulting error message is deterministic). The CLIs fail loudly on
// stray flags rather than let the user attribute results to a flag that
// was silently dropped.
func StrayFlags(fs *flag.FlagSet, disallowed func(name string) bool) []string {
	var stray []string
	fs.Visit(func(f *flag.Flag) {
		if disallowed(f.Name) {
			stray = append(stray, "-"+f.Name)
		}
	})
	return stray
}

// NameSet turns flag-name lists into the membership predicate StrayFlags
// consumes most often.
func NameSet(names ...[]string) map[string]bool {
	set := map[string]bool{}
	for _, list := range names {
		for _, n := range list {
			set[n] = true
		}
	}
	return set
}

// ProfileFlags holds the -cpuprofile/-memprofile flags shared by the
// bench-facing CLIs (cmd/benchsuite, and cmd/amacsim's sweep mode): a
// wall-clock hunt should start from a profile, not a guess. Register with
// RegisterProfileFlags; call Start after flag parsing and the returned
// stop function before exit.
type ProfileFlags struct {
	CPU *string
	Mem *string
}

// RegisterProfileFlags registers the profiling flags on fs.
func RegisterProfileFlags(fs *flag.FlagSet) *ProfileFlags {
	p := &ProfileFlags{}
	p.CPU = fs.String("cpuprofile", "", "write a CPU profile to this file")
	p.Mem = fs.String("memprofile", "", "write a heap profile to this file on exit")
	return p
}

// Start begins CPU profiling if requested and returns the stop function,
// which finishes the CPU profile and writes the heap profile, and returns
// the error of either. The stop function must run before the process
// exits, and the command must fail on its error: a profile that was asked
// for and not written is not a successful run.
func (p *ProfileFlags) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if *p.CPU != "" {
		cpuFile, err = os.Create(*p.CPU)
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
		if *p.Mem == "" {
			return cpuErr
		}
		return errors.Join(cpuErr, writeHeapProfile(*p.Mem))
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
