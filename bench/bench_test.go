package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/absmac/absmac/internal/amac"
)

// Every workload runs here at toy size (expander:64:4, clique:32, one sweep
// pass of two seeds, exploration budget 16); -short skips the traced passes.

func toyArgs(t *testing.T, trace bool) runArgs {
	return runArgs{seed: 1, seconds: 1, trace: trace, toy: true, root: "..", outDir: t.TempDir()}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := bf.Workloads[i]
		checkName(got.Name)
		if got.Name != w.name() || got.Why != w.why() {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name(), w.why())
		}
		if len(got.Why) > 200 || strings.Contains(got.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", got.Name)
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(bf.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, s := range endToEnd {
		got := bf.EndToEnd[i]
		checkName(got.Name)
		if got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better || got.Bound != s.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, s)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", got.Name, got.Bound)
		}
		setup = setup || (got.Name == "setup_s" && got.Unit == "s" && got.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d (limit 128)", len(bf.PerLayer), len(perLayer))
	}
	for i, s := range perLayer {
		got := bf.PerLayer[i]
		checkName(got.Name)
		if got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, s)
		}
	}
}

func TestToyWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name(), func(t *testing.T) {
			o := runWorkload(w, toyArgs(t, false))
			if !o.Correct || o.Failed != 0 {
				t.Fatalf("untraced pass failed: %d of %d ops, problems %v", o.Failed, o.Attempted, o.Problems)
			}
			for _, s := range endToEnd {
				v, ok := o.EndToEnd[s.Name]
				if !ok || v.Unit != s.Unit {
					t.Errorf("end-to-end metric %s missing or in %q", s.Name, v.Unit)
				}
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", s.Name, v.Value)
				}
			}
			if got := o.EndToEnd["ok_share"].Value; got != 1 {
				t.Errorf("ok_share = %v, want 1", got)
			}
			if len(o.PerLayer) != 0 {
				t.Errorf("untraced pass reported per-layer metrics: %v", o.PerLayer)
			}
			if testing.Short() {
				return
			}

			// The traced pass compares its simulated counters with the
			// untraced executions itself; a mismatch is a problem.
			a := toyArgs(t, true)
			o = runWorkload(w, a)
			if !o.Correct || o.Failed != 0 {
				t.Fatalf("traced pass failed: %d of %d ops, problems %v", o.Failed, o.Attempted, o.Problems)
			}
			for _, s := range perLayer {
				if v, ok := o.PerLayer[s.Name]; !ok || v.Unit != s.Unit {
					t.Errorf("per-layer metric %s missing or in %q", s.Name, v.Unit)
				}
			}
			if got := o.PerLayer["trace.unattributed_share"].Value; got < 0 || got >= 0.02 {
				t.Errorf("self times do not partition the op: trace.unattributed_share = %v", got)
			}
			if got := o.PerLayer["algo.share"].Value; got <= 0 || got >= 1 {
				t.Errorf("algo.share = %v, want inside (0, 1)", got)
			}
			buf, err := os.ReadFile(filepath.Join(a.outDir, "trace_"+w.name()+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(buf, &tf); err != nil {
				t.Fatalf("trace file: %v", err)
			}
			if tf.Workload != w.name() || len(tf.Ops) == 0 || len(tf.Spans) == 0 {
				t.Errorf("trace file has workload %q, %d ops, %d spans", tf.Workload, len(tf.Ops), len(tf.Spans))
			}
			for _, s := range tf.Spans {
				if s.Parent >= s.ID || s.EndNs < s.StartNs || s.SelfNs < 0 {
					t.Fatalf("malformed span %+v", s)
				}
			}
		})
	}
}

// lyingAPI decides the opposite of what the algorithm decided.
type lyingAPI struct{ amac.API }

func (a lyingAPI) Decide(v amac.Value) { a.API.Decide(1 - v) }

type lyingAlg struct{ amac.Algorithm }

func (l lyingAlg) Start(api amac.API) { l.Algorithm.Start(lyingAPI{api}) }

func TestWrongDecisionIsAFailedOp(t *testing.T) {
	a := toyArgs(t, false)
	a.wrap = func(f amac.Factory) amac.Factory {
		return func(cfg amac.NodeConfig) amac.Algorithm {
			if cfg.ID == 1 {
				return lyingAlg{f(cfg)}
			}
			return f(cfg)
		}
	}
	o := runWorkload(findWorkload("decide_clique1024"), a)
	if o.Failed != o.Attempted || o.Correct {
		t.Fatalf("node 1 decided against everyone else, yet %d of %d ops failed (correct=%v)", o.Failed, o.Attempted, o.Correct)
	}
	if got := o.EndToEnd["ok_share"].Value; got != 0 {
		t.Errorf("ok_share = %v, want 0", got)
	}
	if exitCode([]*outcome{o}) == 0 {
		t.Error("a failed op left the exit code at 0")
	}
	var line bytes.Buffer
	printResultLine(&line, o, false)
	var res struct {
		Correct   *bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line.Bytes(), &res); err != nil {
		t.Fatalf("result line %q: %v", line.String(), err)
	}
	if res.Correct == nil || *res.Correct || res.Failed != o.Failed || res.Attempted != o.Attempted || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result line %q does not carry the failure", line.String())
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		exact  bool
		want   string
	}{
		{"same", []float64{1, 1.01, 0.99}, []float64{1.02, 1, 1.01}, "lower", false, "PASS"},
		{"worse", []float64{1, 1.01, 0.99}, []float64{1.3, 1.31, 1.29}, "lower", false, "FAIL"},
		{"better", []float64{1, 1.01, 0.99}, []float64{0.5, 0.51, 0.49}, "lower", false, "PASS"},
		{"higher-is-better", []float64{1}, []float64{0.8}, "higher", false, "FAIL"},
		{"noisy", []float64{1, 1.4, 0.7, 1.1}, []float64{1.05, 1, 1.02, 0.98}, "lower", false, "UNRESOLVED"},
		{"exact-same", []float64{42, 42}, []float64{42}, "lower", true, "PASS"},
		{"exact-better-still-fails", []float64{42}, []float64{41}, "lower", true, "FAIL"},
	} {
		if _, got := verdict(tc.a, tc.b, tc.better, 0.1, tc.exact); !strings.HasPrefix(got, tc.want) {
			t.Errorf("%s: verdict %q, want %s", tc.name, got, tc.want)
		}
	}
}
