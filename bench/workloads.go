package main

import (
	"fmt"
	"runtime"

	"github.com/absmac/absmac/internal/amac"
)

// runArgs is one invocation of one workload.
type runArgs struct {
	// seed is the benchmark seed: every scenario seed of the run derives
	// from it (scenarioSeed), so one seed fixes every simulated count.
	seed int64
	// seconds scales the timed op count: each workload states its ops per
	// ten measured seconds on the reference box. Ops are counted, not
	// timed out, so the simulated metrics of a (commit, seed, seconds)
	// triple repeat to the digit on any machine.
	seconds int
	trace   bool
	// toy runs the test-sized variant of the workload.
	toy bool
	// root is the repository root (the committed replay artifacts live
	// under internal/harness/testdata); outDir receives trace files.
	root, outDir string
	// wrap, when set, wraps every algorithm factory the decide workloads
	// run. The test uses it to inject a wrong decision through the
	// amac.API seam and see it counted as a failed op.
	wrap func(amac.Factory) amac.Factory
	env  envBlock
}

// outcome is what one workload run reports.
type outcome struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	EndToEnd  values   `json:"end_to_end,omitempty"`
	PerLayer  values   `json:"per_layer,omitempty"`
}

// problem records a failed check that is not a failed op (a determinism
// or artifact check); it clears Correct like a failed op does.
func (o *outcome) problem(format string, args ...any) {
	if len(o.Problems) < 16 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
	o.Correct = false
}

// workload is one benchmark workload: run measures it untraced (the
// end-to-end metrics) or traced (the per-layer metrics) into o.
type workload interface {
	name() string
	why() string
	run(a runArgs, o *outcome) error
}

var workloads = []workload{
	decideWorkload{
		wname: "decide_expander4096",
		wwhy:  "wpaxos to all-decided on expander:4096:8 (random, Fack 4): the algorithm layer is ~80% of the time and the n^2 per-node tables make it the memory workload; 4 ops per 10 s",
		algo:  "wpaxos", topo: "expander:4096:8", toyTopo: "expander:64:4", reps: 4,
	},
	decideWorkload{
		wname: "decide_flood128",
		wwhy:  "floodpaxos on expander:128:8 (random, Fack 4): the flooding baseline in its sticky-retransmit regime (~170x D*Fack to decide); a fix shows as a collapse in deliveries_per_op; 40 ops per 10 s",
		algo:  "floodpaxos", topo: "expander:128:8", toyTopo: "expander:32:4", reps: 40,
	},
	decideWorkload{
		wname: "decide_clique1024",
		wwhy:  "twophase on clique:1024 (random, Fack 4): the single-hop Thm 4.1 case, decides in 2*Fack; the one real-algorithm workload where engine loop and queue are ~40% of the time; 8 ops per 10 s",
		algo:  "twophase", topo: "clique:1024", toyTopo: "clique:32", reps: 8,
	},
	sweepWorkload{},
	exploreWorkload{},
}

func findWorkload(name string) workload {
	for _, w := range workloads {
		if w.name() == name {
			return w
		}
	}
	return nil
}

// scenarioSeed derives the scenario seed of a run's i-th op. Ops of one
// run use distinct scenario seeds, so a run's medians average over
// topologies and schedules instead of resting on one execution, and
// benchmark seeds never share scenarios (i stays far below 1000).
func scenarioSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// scaledReps turns a workload's ops-per-ten-seconds into the op count of
// this run.
func scaledReps(per10s, seconds int) int {
	if n := per10s * seconds / 10; n > 1 {
		return n
	}
	return 1
}

// moreSetups reports whether an untraced run should set the workload up
// once more: at least three times, then until the set-ups add up to three
// seconds (cheap set-ups are the noisy ones), at most twenty-five. The
// reported setup_s is the median.
func moreSetups(a runArgs, setups []float64) bool {
	if a.toy {
		return len(setups) < 1
	}
	var sum float64
	for _, s := range setups {
		sum += s
	}
	return len(setups) < 3 || (sum < 3 && len(setups) < 25)
}

const mb = 1 << 20

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// finishEndToEnd fills the metrics every workload derives the same way.
func (o *outcome) finishEndToEnd(setups []float64) {
	o.EndToEnd.set(endToEnd, "ok_share", float64(o.Attempted-o.Failed)/float64(o.Attempted))
	o.EndToEnd["setup_s"] = timing(setups, "s")
}

// spanned runs fn inside a span of class c when tracing, bare otherwise.
func spanned(tr *tracer, c spanClass, fn func()) {
	if tr == nil {
		fn()
		return
	}
	tr.span(c, fn)
}
