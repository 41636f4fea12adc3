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
// stray-flag and two-mode refusals, the event cap's sign check in every
// mode that takes it, and the end-to-end commands that pin each mode's
// flag wiring (the sweep golden, the explore, replay and campaign runs,
// and a -record/-replay round trip).
func TestCommandLine(t *testing.T) {
	dir := t.TempDir()
	artifacts := filepath.Join(dir, "campaign")
	if err := os.Mkdir(artifacts, 0o755); err != nil {
		t.Fatal(err)
	}
	// Each mode's selector, then one flag that another mode accepts and
	// this one does not, per other mode.
	selectors := map[string][]string{
		"single":  nil,
		"sweep":   {"-sweep"},
		"explore": {"-explore"},
		"grid":    {"-grid"},
		"replay":  {"-replay", stall},
	}
	strays := map[string][]string{
		"single":  {"-algos=x", "-budget=1", "-saturate=1", "-critpath", "-json"},
		"sweep":   {"-trace=x", "-record=x", "-algo=x", "-out=x", "-artifacts=x", "-critpath"},
		"explore": {"-record=x", "-seeds=2", "-metrics", "-saturate=1", "-trace=x"},
		"grid":    {"-v", "-metrics", "-cpuprofile=x", "-out=x", "-seed=2", "-critpath"},
		"replay":  {"-algo=twophase", "-maxevents=5", "-seeds=2", "-budget=1", "-artifacts=x"},
	}
	type row struct {
		name   string
		args   []string
		code   int
		stdout string // when set, stdout must equal this file
		line   string // when set, stdout must hold this line
	}
	var rows []row
	for _, mode := range []string{"single", "sweep", "explore", "grid", "replay"} {
		for _, s := range strays[mode] {
			args := append(append([]string(nil), selectors[mode]...), s)
			rows = append(rows, row{name: mode + " refuses " + s, args: args, code: 2})
		}
		if mode != "replay" {
			args := append(append([]string(nil), selectors[mode]...), "-maxevents", "-1")
			rows = append(rows, row{name: mode + " refuses a negative cap", args: args, code: 2})
		}
	}
	rows = append(rows,
		row{name: "two modes", args: []string{"-sweep", "-grid"}, code: 2},
		row{name: "explore and replay", args: []string{"-explore", "-replay", stall}, code: 2},
		row{name: "=false selects nothing", args: []string{"-sweep=false", "-grid=false", "-topo", "clique:4", "-v"}, code: 0},
		row{
			name: "unwritable -memprofile",
			args: []string{"-sweep", "-seeds", "1", "-topos", "clique:4", "-scheds", "sync", "-memprofile", filepath.Join(dir, "missing", "x.out")},
			code: 2,
		},
		row{
			name: "sweep golden output",
			args: strings.Fields("-sweep -algos wpaxos,floodpaxos -topos clique:4,ring:5 -scheds sync,random" +
				" -facks 3 -seeds 3 -crashes none,one@0 -overlays none,chords -json"),
			stdout: sweepGolden,
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
		row{name: "replay the stall", args: []string{"-replay", stall}},
		row{name: "replay the wpaxos golden", args: []string{"-replay", testdata + "golden_wpaxos_midbroadcast_chords.json", "-critpath"}},
		row{name: "replay the floodpaxos golden", args: []string{"-replay", testdata + "golden_floodpaxos_one3_extra.json", "-json"}},
		row{
			name: "campaign smoke",
			args: strings.Fields("-grid -algos floodpaxos -topos ring:5,clique:4 -scheds sync,random -facks 3" +
				" -seeds 4 -maxevents 200000"),
		},
		// Before the Ω failure-detector redesign this grid reproduced two
		// liveness stalls; both PAXOS variants now terminate in every cell.
		row{
			name: "campaign end-to-end",
			args: strings.Fields("-grid -algos wpaxos,floodpaxos -topos ring:9,grid:3x3 -scheds random -facks 4" +
				" -crashes midbroadcast,one@3,maxid@3 -overlays chords,extra:4@0.6 -seeds 8 -maxevents 200000" +
				" -budget 0 -minimize -artifacts " + artifacts),
		},
	)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			stdout := runOK(t, r.args, r.code)
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
		if stdout := runOK(t, []string{"-replay", rec}, 0); !strings.Contains(stdout, "artifact reproduces") {
			t.Errorf("replay of the recorded run:\n%s", stdout)
		}
	})
}

// runOK runs the command and checks its exit status, returning stdout.
func runOK(t *testing.T, args []string, code int) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if got := run(args, &stdout, &stderr); got != code {
		t.Fatalf("amacsim %s exited %d, want %d; stderr:\n%s", strings.Join(args, " "), got, code, stderr.String())
	}
	return stdout.String()
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
