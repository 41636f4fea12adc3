package harness

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"github.com/absmac/absmac/internal/sim"
)

// livelock never decides and never quiesces: wPAXOS on ring:12 with a
// seeded minority crashed retransmits until the event cap, so each of its
// executions reports exactly the cap it ran under.
var livelock = Scenario{
	Algo: "wpaxos", Topo: Topo{Kind: "ring", N: 12},
	Sched: "random", Fack: 2, Seed: 1, Crashes: "minorityrand",
}

// TestOneCapPerScenarioSeed pins the determinism contract for the event
// budget: a (scenario, seed) with no cap of its own runs under
// sim.DefaultMaxEvents whether it runs alone, as a sweep cell, or as a
// recording replayed.
func TestOneCapPerScenarioSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("three runs to the default cap")
	}
	check := func(path string, res *sim.Result) {
		t.Helper()
		if res.Events != sim.DefaultMaxEvents || !res.Cutoff {
			t.Errorf("%s: %d events (cutoff %v), want the cutoff at sim.DefaultMaxEvents = %d",
				path, res.Events, res.Cutoff, sim.DefaultMaxEvents)
		}
	}

	out, err := livelock.Run()
	if err != nil {
		t.Fatal(err)
	}
	check("Scenario.Run", out.Result)

	cells, err := SweepCellsOpts([]CellWork{{Base: livelock, Seeds: []int64{livelock.Seed}}}, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	flagged := cells[0].Flagged
	if len(flagged) != 1 {
		t.Fatalf("sweep flagged %d runs, want 1", len(flagged))
	}
	if v := flagged[0].Violation; v.Events != sim.DefaultMaxEvents || v.Quiescent {
		t.Errorf("sweep cell: %d events (quiescent %v), want the cutoff at %d", v.Events, v.Quiescent, sim.DefaultMaxEvents)
	}

	_, sched, err := livelock.RunRecorded()
	if err != nil {
		t.Fatal(err)
	}
	runner, err := livelock.NewReplayRunner()
	if err != nil {
		t.Fatal(err)
	}
	out, _, err = runner.Run(sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("ReplayRunner.Run", out.Result)
}

// TestNegativeCapRefused: a cap below zero is an error from every entry
// point, never a run cut off at zero events and classified as
// non-termination.
func TestNegativeCapRefused(t *testing.T) {
	sc := Scenario{Algo: "twophase", Topo: Topo{Kind: "clique", N: 3}, Sched: "random", Fack: 2, Seed: 1, MaxEvents: -1}
	if out, err := sc.Run(); err == nil {
		t.Errorf("Scenario.Run: no error, %d events (cutoff %v)", out.Result.Events, out.Result.Cutoff)
	}
	if cells, err := SweepCellsOpts([]CellWork{{Base: sc, Seeds: []int64{1, 2}}}, SweepOptions{Workers: 1}); err == nil {
		t.Errorf("SweepCellsOpts: no error, %d runs flagged", len(cells[0].Flagged))
	}
	g := Grid{Algos: []string{sc.Algo}, Topos: []Topo{sc.Topo}, Scheds: []string{sc.Sched},
		Facks: []int64{sc.Fack}, Seeds: []int64{1}, MaxEvents: -1}
	if _, err := g.Cells(); err == nil {
		t.Error("Grid.Cells: no error")
	}
}

// TestOneEventCapDefault keeps the event budget's default in one place:
// outside internal/sim (and bench/, a separate module), no non-test Go
// names sim.DefaultMaxEvents or DefaultSweepMaxEvents, except the alias
// declaration that bench/ still compiles against. Code above the engine
// passes a zero cap through; it never substitutes a default of its own.
func TestOneEventCapDefault(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			rel, _ := filepath.Rel(root, path)
			if rel == "bench" || rel == filepath.Join("internal", "sim") || d.Name() == "testdata" || d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				// The alias itself: `const DefaultSweepMaxEvents = sim.DefaultMaxEvents`.
				if len(n.Names) == 1 && n.Names[0].Name == "DefaultSweepMaxEvents" {
					return false
				}
			case *ast.Ident:
				if n.Name == "DefaultMaxEvents" || n.Name == "DefaultSweepMaxEvents" {
					t.Errorf("%s: names %s; set the cap on the Scenario or Grid and let the engine default it",
						fset.Position(n.Pos()), n.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
