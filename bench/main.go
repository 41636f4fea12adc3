// Command bench is the repository's end-to-end benchmark: five workloads
// over the real algorithms, harness and explorer, seven end-to-end metrics
// each, and a per-layer breakdown traced from outside the program. See
// README.md for the workloads, the metric glossary and how to run it.
//
// Usage (from the repository root; run.sh builds and forwards its flags):
//
//	bench -workload NAME [-seed S] [-seconds N] [-trace 0|1]   one workload; last stdout line is the result object
//	bench -all [-seed S] [-seconds N] [-trace 0|1] [-out FILE] every workload, untraced then (with -trace 1) traced
//	bench -compare A.json[,A2.json...] B.json[,B2.json...]     judge B against A by the bounds in BENCHMARK.json
//
// Exit status is 1 when any op fails its check or any determinism check
// fails, 2 on bad usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload by name")
	all := fs.Bool("all", false, "run every workload")
	seed := fs.Int64("seed", 1, "benchmark seed: every scenario seed derives from it")
	seconds := fs.Int("seconds", 15, "measured seconds per workload on the reference box (scales the op count)")
	trace := fs.Int("trace", 0, "1 = traced pass: per-layer metrics and out/trace_<workload>.json")
	out := fs.String("out", "", "also write the results as JSON to this file (input of -compare)")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A.json[,...] B.json[,...]")
	root := fs.String("root", ".", "repository root")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result sets")
			return 2
		}
		return runCompare(filepath.Join(*root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if oneWorkload := *name != ""; oneWorkload == *all || fs.NArg() != 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: need exactly one of -workload NAME and -all, -seconds >= 1, -trace 0 or 1")
		return 2
	}
	selected := workloads
	if !*all {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = []workload{w}
	}

	a := runArgs{seed: *seed, seconds: *seconds, root: *root, outDir: filepath.Join(*root, "bench", "out"), env: startEnv()}
	var results []*outcome
	for _, w := range selected {
		// -workload runs the pass -trace names; -all runs the untraced
		// pass and, with -trace 1, the traced pass after it.
		var o *outcome
		if *all || *trace == 0 {
			a.trace = false
			o = runWorkload(w, a)
		}
		if *trace == 1 {
			a.trace = true
			o = mergeOutcomes(o, runWorkload(w, a))
		}
		printOutcome(stdout, o)
		results = append(results, o)
	}
	a.env.finish()

	if *out != "" {
		if err := writeResults(*out, resultFile{Env: a.env, Seed: *seed, Seconds: *seconds, Results: results}); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if !*all {
		printResultLine(stdout, results[0], *trace == 1)
	}
	return exitCode(results)
}

// exitCode is 1 when any workload failed an op or a check.
func exitCode(results []*outcome) int {
	for _, o := range results {
		if !o.Correct {
			return 1
		}
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name())
	}
	return names
}

// runWorkload runs one pass of one workload. An error from the program's
// entry points (a scenario that no longer builds, say) is a failed check,
// not a crash: it is reported and flips the exit code.
func runWorkload(w workload, a runArgs) *outcome {
	o := &outcome{Workload: w.name(), Seed: a.seed, Correct: true, EndToEnd: values{}, PerLayer: values{}}
	if err := w.run(a, o); err != nil {
		o.problem("%v", err)
	}
	if o.Attempted == 0 {
		o.Attempted, o.Failed = 1, 1
	}
	if o.Failed > 0 {
		o.Correct = false
	}
	if a.trace {
		o.PerLayer.fill(perLayer)
	} else {
		o.EndToEnd.fill(endToEnd)
	}
	return o
}

// mergeOutcomes folds the traced pass into the untraced one (either may be
// nil when only one pass ran).
func mergeOutcomes(untraced, traced *outcome) *outcome {
	if untraced == nil {
		return traced
	}
	untraced.Correct = untraced.Correct && traced.Correct
	untraced.Attempted += traced.Attempted
	untraced.Failed += traced.Failed
	untraced.Problems = append(untraced.Problems, traced.Problems...)
	untraced.PerLayer = traced.PerLayer
	return untraced
}

func printOutcome(w io.Writer, o *outcome) {
	status := "ok"
	if !o.Correct {
		status = "FAILED"
	}
	fmt.Fprintf(w, "== %s seed=%d attempted=%d failed=%d %s\n", o.Workload, o.Seed, o.Attempted, o.Failed, status)
	for _, p := range o.Problems {
		fmt.Fprintf(w, "   problem: %s\n", p)
	}
	printValues(w, "end_to_end", endToEnd, o.EndToEnd)
	printValues(w, "per_layer", perLayer, o.PerLayer)
}

func printValues(w io.Writer, kind string, specs []metricSpec, vs values) {
	for _, s := range specs {
		v, ok := vs[s.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-10s %-36s %18.10g %-8s %-6s", kind, s.Name, v.Value, v.Unit, s.Better)
		if v.Samples > 0 {
			line += fmt.Sprintf(" samples=%d", v.Samples)
		}
		if v.TailPct > 0 {
			line += fmt.Sprintf(" p%.0f=%.6g", v.TailPct, v.Tail)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// printResultLine prints the one-object result line the driver reads.
func printResultLine(w io.Writer, o *outcome, traced bool) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vs := o.EndToEnd
	if traced {
		vs = o.PerLayer
	}
	ms := make(map[string]valueUnit, len(vs))
	for n, v := range vs {
		ms[n] = valueUnit{v.Value, v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, ms})
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Fprintln(w, string(line))
}

// resultFile is the -out format and the input of -compare.
type resultFile struct {
	Env     envBlock   `json:"env"`
	Seed    int64      `json:"seed"`
	Seconds int        `json:"seconds"`
	Results []*outcome `json:"results"`
}

func writeResults(path string, rf resultFile) error {
	buf, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return fmt.Errorf("bench: encode results: %w", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write results: %w", err)
	}
	return nil
}
