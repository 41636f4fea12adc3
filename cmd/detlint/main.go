// Command detlint runs the determinism-contract analyzer suite
// (internal/lint) over Go package patterns — a self-contained
// multichecker in the x/tools mold, built only on the standard library.
//
// Usage:
//
//	detlint [-only name,name] [packages]
//
// With no patterns it checks ./... . Each finding prints as
//
//	path/file.go:line:col: [analyzer] message
//
// and the exit status is 0 when the tree is clean, 1 when there are
// findings, 2 on a load/internal error. `go test ./cmd/detlint/` runs it
// over the whole module and on each analyzer's fixture, so the tier-1
// gate enforces the contract.
//
// The suite (see each analyzer's package documentation for the precise
// rule, scope and escape hatches):
//
//	norawrand       no ambient math/rand in the deterministic core
//	nowallclock     no time.Now/Since/Until under internal/
//	maporder        no map iteration feeding JSON/fmt/hash/returned-append sinks
//	goroutineorder  workers publish index-addressed or in candidate order
//
// -only restricts the run to a comma-separated subset of analyzer names.
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/absmac/absmac/internal/lint"
	"github.com/absmac/absmac/internal/lint/analysis"
	"github.com/absmac/absmac/internal/lint/load"
)

type finding struct {
	pos      token.Position
	analyzer string
	message  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, runs the selected analyzers over
// the patterns (relative to the working directory) and returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("detlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	patterns := fs.Args()

	analyzers := lint.Analyzers()
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var sel []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		if len(keep) > 0 {
			unknown := make([]string, 0, len(keep))
			for name := range keep {
				unknown = append(unknown, name)
			}
			sort.Strings(unknown)
			fmt.Fprintf(stderr, "detlint: unknown analyzer(s): %s\n", strings.Join(unknown, ", "))
			return 2
		}
		analyzers = sel
	}

	pkgs, err := load.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "detlint: %v\n", err)
		return 2
	}

	var findings []finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg.PkgPath) {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			pass.Report = func(d analysis.Diagnostic) {
				findings = append(findings, finding{pkg.Fset.Position(d.Pos), a.Name, d.Message})
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(stderr, "detlint: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
				return 2
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		return a.analyzer < b.analyzer
	})

	cwd, _ := os.Getwd()
	for _, f := range findings {
		name := f.pos.Filename
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", name, f.pos.Line, f.pos.Column, f.analyzer, f.message)
	}

	if len(findings) > 0 {
		fmt.Fprintf(stderr, "detlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
