package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

const (
	testdata    = "../../internal/harness/testdata/"
	stall       = testdata + "stall_twophase_coordinator_chords.json"
	sweepGolden = testdata + "golden_small_grid.json"
)

// TestCommandLine drives the command in-process: the mode table's
// stray-flag and two-mode refusals, the sign check of every count in
// every mode that takes it, and the end-to-end commands that pin each
// mode's flag wiring (the sweep golden, the explore, replay and campaign
// runs, a -record/-replay round trip, a claim and the canonical grid).
// Every refusal (exit 2) names the message it must print, so a row fails
// when the command refuses it for another reason.
func TestCommandLine(t *testing.T) {
	dir := t.TempDir()
	artifacts := filepath.Join(dir, "campaign")
	if err := os.Mkdir(artifacts, 0o755); err != nil {
		t.Fatal(err)
	}
	// Each mode's selector, then one flag that another mode accepts and
	// this one does not, per other mode.
	selectors := map[string][]string{
		"single":    nil,
		"sweep":     {"-sweep"},
		"explore":   {"-explore"},
		"grid":      {"-grid"},
		"replay":    {"-replay", stall},
		"claims":    {"-claims", "E5"},
		"canonical": {"-canonical"},
	}
	strays := map[string][]string{
		"single":    {"-seeds=2", "-budget=1", "-critpath", "-json"},
		"sweep":     {"-trace=x", "-record=x", "-seed=2", "-out=x", "-artifacts=x", "-critpath"},
		"explore":   {"-record=x", "-seeds=2", "-metrics", "-trace=x"},
		"grid":      {"-v", "-metrics", "-cpuprofile=x", "-out=x", "-seed=2", "-critpath"},
		"replay":    {"-algo=twophase", "-maxevents=5", "-seeds=2", "-budget=1", "-artifacts=x"},
		"claims":    {"-json", "-workers=2", "-algo=twophase", "-seeds=2"},
		"canonical": {"-q", "-metrics", "-seeds=2", "-maxevents=5"},
	}
	// Each count flag, what its rows call it, the refusal it prints and
	// the modes that take it.
	negatives := []struct {
		flag, what, stderr string
		modes              []string
	}{
		{"maxevents", "cap", "event cap -1 is negative", []string{"single", "sweep", "explore", "grid"}},
		{"budget", "budget", "-budget -1 is negative", []string{"explore", "grid"}},
		{"workers", "workers", "-workers -1 is negative", []string{"sweep", "explore", "grid", "canonical"}},
	}
	type row struct {
		name   string
		args   []string
		code   int
		stdout string // when set, stdout must equal this file
		line   string // when set, stdout must hold this line
		stderr string // stderr must hold this; set on every exit-2 row
	}
	var rows []row
	for _, mode := range []string{"single", "sweep", "explore", "grid", "replay", "claims", "canonical"} {
		for _, s := range strays[mode] {
			args := append(append([]string(nil), selectors[mode]...), s)
			name, _, _ := strings.Cut(s, "=")
			rows = append(rows, row{name: mode + " refuses " + s, args: args, code: 2,
				stderr: name + " not allowed in " + mode + " mode"})
		}
	}
	for _, n := range negatives {
		for _, mode := range n.modes {
			args := append(append([]string(nil), selectors[mode]...), "-"+n.flag, "-1")
			rows = append(rows, row{name: mode + " refuses a negative " + n.what, args: args, code: 2, stderr: n.stderr})
		}
	}
	// The scenario flags take lists only where a mode sweeps them.
	for _, mode := range []string{"single", "explore"} {
		for _, list := range [][]string{{"-topo", "clique:4,ring:5"}, {"-fack", "2,4"}} {
			args := append(append([]string(nil), selectors[mode]...), list...)
			rows = append(rows, row{name: mode + " refuses the list " + strings.Join(list, " "), args: args, code: 2,
				stderr: list[0] + " lists 2 entries; only -sweep and -grid take lists"})
		}
	}
	const twoModes = "are separate modes; choose one"
	rows = append(rows,
		row{name: "two modes", args: []string{"-sweep", "-grid"}, code: 2, stderr: twoModes},
		row{name: "explore and replay", args: []string{"-explore", "-replay", stall}, code: 2, stderr: twoModes},
		row{name: "claims and canonical", args: []string{"-claims", "all", "-canonical"}, code: 2, stderr: twoModes},
		row{name: "=false selects nothing", args: []string{"-sweep=false", "-grid=false", "-claims=", "-topo", "clique:4", "-v"}, code: 0},
		// An empty scenario list is refused by the flag that set it.
		row{name: "empty -algo", args: []string{"-algo", ""}, code: 2, stderr: "amacsim: harness: sweep grid has an empty -algo axis\n"},
		row{name: "sweep empty -topo", args: []string{"-sweep", "-topo", ""}, code: 2, stderr: "sweep grid has an empty -topo axis"},
		row{
			name:   "unwritable -memprofile",
			args:   []string{"-sweep", "-seeds", "1", "-topo", "clique:4", "-sched", "sync", "-memprofile", filepath.Join(dir, "missing", "x.out")},
			code:   2,
			stderr: "-memprofile: open ",
		},
		row{
			name:   "claims unwritable -memprofile",
			args:   []string{"-claims", "E5", "-q", "-memprofile", filepath.Join(dir, "missing", "x.out")},
			code:   2,
			stderr: "-memprofile: open ",
		},
		row{name: "one claim", args: []string{"-claims", "E5", "-q"}, line: "E5   PASS Two-phase consensus: O(Fack) decisions in single-hop networks"},
		row{name: "unknown claim", args: []string{"-claims", "E0"}, code: 2, stderr: `no claim "E0"`},
		// The whole canonical grid runs clean: exit 1 is a violating cell.
		row{name: "canonical grid", args: []string{"-canonical"}},
		row{
			name: "sweep golden output",
			args: strings.Fields("-sweep -algo wpaxos,floodpaxos -topo clique:4,ring:5 -sched sync,random" +
				" -fack 3 -seeds 3 -crash none,one@0 -overlay none,chords -json"),
			stdout: sweepGolden,
		},
		// E3's K_4 witness as a sweep cell: a violating cell is exit 1.
		row{
			name: "sweep flags a violating cell",
			args: strings.Fields("-sweep -algo waitall@30 -topo kd:4 -sched gate@32 -inputs cut -fack 1 -seeds 2"),
			code: 1,
		},
		row{
			name: "explore smoke",
			args: strings.Fields("-explore -algo floodpaxos -topo ring:9 -sched random -fack 4 -seed 4" +
				" -crash midbroadcast -overlay chords -budget 24"),
		},
		// decide/(D·Fack) has one definition across single runs, sweeps
		// and bench: D = 4 here, and 97 / (4·4) = 6.06.
		row{
			name: "decide time ratio",
			args: strings.Fields("-algo wpaxos -topo expander:256:8 -seed 1"),
			line: "decide time 97 (24.25 x Fack, 6.06 x D*Fack; survivors)",
		},
		// E3's K_4 witness (Theorem 3.9) is an ordinary scenario: the
		// n-oblivious gatherer, its hub silent, split-brains.
		row{
			name: "K_4 witness",
			args: strings.Fields("-algo waitall@30 -topo kd:4 -sched gate@32 -inputs cut -fack 1"),
			code: 1,
			line: "agreement   false",
		},
		row{name: "replay the stall", args: []string{"-replay", stall}},
		row{name: "replay the wpaxos golden", args: []string{"-replay", testdata + "golden_wpaxos_midbroadcast_chords.json", "-critpath"}},
		row{name: "replay the floodpaxos golden", args: []string{"-replay", testdata + "golden_floodpaxos_one3_extra.json", "-json"}},
		row{
			name: "campaign smoke",
			args: strings.Fields("-grid -algo floodpaxos -topo ring:5,clique:4 -sched sync,random -fack 3" +
				" -seeds 4 -maxevents 200000"),
		},
		// Before the Ω failure-detector redesign this grid reproduced two
		// liveness stalls; both PAXOS variants now terminate in every cell.
		row{
			name: "campaign end-to-end",
			args: strings.Fields("-grid -algo wpaxos,floodpaxos -topo ring:9,grid:3x3 -sched random -fack 4" +
				" -crash midbroadcast,one@3,maxid@3 -overlay chords,extra:4@0.6 -seeds 8 -maxevents 200000" +
				" -budget 0 -minimize -artifacts " + artifacts),
		},
	)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			stdout, stderr := runOK(t, r.args, r.code)
			if r.code == 2 && r.stderr == "" {
				t.Fatal("an exit-2 row must name the refusal it expects on stderr")
			}
			if !strings.Contains(stderr, r.stderr) {
				t.Errorf("stderr lacks %q:\n%s", r.stderr, stderr)
			}
			if r.line != "" && !slices.Contains(strings.Split(stdout, "\n"), r.line) {
				t.Errorf("stdout lacks the line %q:\n%s", r.line, stdout)
			}
			if r.stdout == "" {
				return
			}
			want, err := os.ReadFile(r.stdout)
			if err != nil {
				t.Fatal(err)
			}
			if stdout != string(want) {
				t.Errorf("stdout differs from %s", r.stdout)
			}
		})
	}
	if left, _ := os.ReadDir(artifacts); len(left) > 0 {
		t.Errorf("the clean campaign wrote %d artifact(s) into -artifacts", len(left))
	}

	t.Run("explore writes the committed stall", func(t *testing.T) {
		// The committed stall is explore mode's output on its ring:9 cell
		// but for the note.
		out := filepath.Join(dir, "stall.json")
		runOK(t, strings.Fields("-explore -algo twophase -topo ring:9 -sched random -fack 4 -seed 4"+
			" -crash coordinator -overlay chords -budget 0 -maxevents 200000 -minimize -out "+out), 1)
		if got, want := artifactSansNote(t, out), artifactSansNote(t, stall); !reflect.DeepEqual(got, want) {
			t.Errorf("-explore -budget 0 -minimize -out no longer writes %s (note aside)", stall)
		}
	})
	t.Run("record then replay", func(t *testing.T) {
		rec, tr := filepath.Join(dir, "rec.json"), filepath.Join(dir, "rec.jsonl")
		runOK(t, strings.Fields("-algo wpaxos -topo ring:9 -sched random -fack 4 -seed 4 -crash midbroadcast"+
			" -overlay chords -maxevents 200000 -record "+rec+" -trace "+tr), 0)
		if a := artifactSansNote(t, rec); a["max_events"] != 200000.0 {
			t.Errorf("-record wrote max_events %v, want the -maxevents 200000 the run had", a["max_events"])
		}
		if fi, err := os.Stat(tr); err != nil || fi.Size() == 0 {
			t.Errorf("-trace wrote no trace: %v", err)
		}
		if stdout, _ := runOK(t, []string{"-replay", rec}, 0); !strings.Contains(stdout, "artifact reproduces") {
			t.Errorf("replay of the recorded run:\n%s", stdout)
		}
	})
}

// runOK runs the command and checks its exit status, returning stdout and
// stderr.
func runOK(t *testing.T, args []string, code int) (stdout, stderr string) {
	t.Helper()
	var out, errs bytes.Buffer
	if got := run(args, &out, &errs); got != code {
		t.Fatalf("amacsim %s exited %d, want %d; stderr:\n%s", strings.Join(args, " "), got, code, errs.String())
	}
	return out.String(), errs.String()
}

func artifactSansNote(t *testing.T, path string) map[string]any {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a map[string]any
	if err := json.Unmarshal(b, &a); err != nil {
		t.Fatal(err)
	}
	delete(a, "note")
	return a
}

// TestEveryFlagHasAMode: a flag that no mode accepts could never be set.
func TestEveryFlagHasAMode(t *testing.T) {
	fs := flag.NewFlagSet("amacsim", flag.ContinueOnError)
	(&cli{}).bind(fs)
	taken := map[string]bool{}
	for _, m := range modes {
		taken[m.name] = true
		for _, f := range strings.Fields(m.flags) {
			if fs.Lookup(f) == nil {
				t.Errorf("mode %s accepts -%s, which is not defined", m.name, f)
			}
			taken[f] = true
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !taken[f.Name] {
			t.Errorf("no mode accepts -%s", f.Name)
		}
	})
}
