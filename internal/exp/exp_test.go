package exp

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The experiment drivers are the repository's deliverable (d): each one
// regenerates a paper result. These tests run every driver and require its
// shape check to pass — they are integration tests over the whole stack.

func checkExperiment(t *testing.T, e *Experiment) {
	t.Helper()
	if !e.OK {
		t.Fatalf("%s failed its shape check:\n%s", e.ID, e.Render())
	}
	out := e.Render()
	for _, want := range []string{e.ID, "paper claim", "PASS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("%s render missing %q:\n%s", e.ID, want, out)
		}
	}
	if len(e.Table.Rows) == 0 {
		t.Fatalf("%s produced no rows", e.ID)
	}
}

func TestE1(t *testing.T)  { checkExperiment(t, E1FLP()) }
func TestE2(t *testing.T)  { checkExperiment(t, E2Anonymous()) }
func TestE3(t *testing.T)  { checkExperiment(t, E3SizeKnowledge()) }
func TestE4(t *testing.T)  { checkExperiment(t, E4TimeLowerBound()) }
func TestE5(t *testing.T)  { checkExperiment(t, E5TwoPhase()) }
func TestE6(t *testing.T)  { checkExperiment(t, E6WPaxos()) }
func TestE7(t *testing.T)  { checkExperiment(t, E7FloodingBaseline()) }
func TestE8(t *testing.T)  { checkExperiment(t, E8TagGrowth()) }
func TestE9(t *testing.T)  { checkExperiment(t, E9AggregationAudit()) }
func TestE10(t *testing.T) { checkExperiment(t, E10UnknownParticipants()) }
func TestE11(t *testing.T) { checkExperiment(t, E11UnreliableLinks()) }
func TestE12(t *testing.T) { checkExperiment(t, E12Randomization()) }

// TestAllOrdered runs the whole index in order and compares what
// cmd/benchsuite prints against testdata/experiments.golden byte for byte,
// so any moved row in any table shows up as a diff of that file.
//
// Regenerate (only when an experiment's runs or table intentionally
// change; the diff is the row-by-row account of what moved) with:
//
//	go run ./cmd/benchsuite > internal/exp/testdata/experiments.golden
func TestAllOrdered(t *testing.T) {
	if len(Index) != 12 {
		t.Fatalf("Index lists %d experiments, want 12", len(Index))
	}
	var got bytes.Buffer
	for i, d := range Index {
		if want := fmt.Sprintf("E%d", i+1); d.ID != want {
			t.Fatalf("index entry %d has id %q, want %q", i, d.ID, want)
		}
		e := d.Run()
		if e.ID != d.ID {
			t.Fatalf("index entry %s ran experiment %q", d.ID, e.ID)
		}
		fmt.Fprintln(&got, e.Render())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "experiments.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("experiment tables diverged from testdata/experiments.golden "+
			"(got %d bytes, want %d); diff `go run ./cmd/benchsuite` against it:\n%s",
			got.Len(), len(want), got.String())
	}
}

// TestClaimsRunThroughTheExecutor keeps every simulated run of the
// experiments on the harness executor, where replay, recording, observers
// and the consensus verdict are installed: no non-test file of this
// package may call the engine or the checker directly.
func TestClaimsRunThroughTheExecutor(t *testing.T) {
	banned := map[string]map[string]bool{
		"github.com/absmac/absmac/internal/sim":       {"Run": true, "NewEngine": true},
		"github.com/absmac/absmac/internal/consensus": {"Check": true},
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		// The local name each banned package is imported under.
		local := map[string]map[string]bool{}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if funcs, ok := banned[path]; ok {
				pkg := filepath.Base(path)
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
				local[pkg] = funcs
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && local[pkg.Name][sel.Sel.Name] {
				t.Errorf("%s: %s.%s runs outside the harness executor; build a harness.Scenario or Grid",
					fset.Position(call.Pos()), pkg.Name, sel.Sel.Name)
			}
			return true
		})
	}
}
