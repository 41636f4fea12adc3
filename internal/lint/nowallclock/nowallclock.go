// Package nowallclock forbids wall-clock reads in the simulated world.
//
// Simulated time is the event queue's logical clock; the moment an
// algorithm, scheduler, or harness consults the machine's clock
// (time.Now, time.Since, time.Until), identical (scenario, seed) runs can
// diverge and schedule replay stops being byte-identical. The analyzer
// reports every call to those functions inside the scoped packages.
//
// Scope: every package under internal/ EXCEPT the wall-clock runtime
// internal/live and its UDP MAC internal/netmac, whose whole point is real
// time.
// cmd/ front-ends and examples/ are also exempt (they time user-visible
// work, not simulated executions). There is no comment escape hatch: code
// in the deterministic core that genuinely needs a duration measurement
// belongs behind a substrate interface, not behind an annotation.
package nowallclock

import (
	"go/ast"
	"strings"

	"github.com/absmac/absmac/internal/lint/analysis"
)

// Analyzer is the nowallclock analyzer.
var Analyzer = &analysis.Analyzer{
	Name:  "nowallclock",
	Doc:   "forbid time.Now/Since/Until in the simulator and algorithm packages; simulated time is the only clock there",
	Scope: scope,
	Run:   run,
}

// exempt lists the internal/ subtrees allowed to read the wall clock.
var exempt = []string{"live", "netmac"}

// scope admits every internal/ package except the wall-clock runtime and MAC;
// fixture packages (any /testdata/ path) are always in scope.
func scope(path string) bool {
	if strings.Contains(path, "/testdata/") {
		return true
	}
	const internal = "github.com/absmac/absmac/internal/"
	rest, ok := strings.CutPrefix(path, internal)
	if !ok {
		return false
	}
	for _, e := range exempt {
		if rest == e || strings.HasPrefix(rest, e+"/") {
			return false
		}
	}
	return true
}

// banned are the time package functions that read the wall clock.
var banned = []string{"Now", "Since", "Until"}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if analysis.IsPkgFunc(pass.TypesInfo, call, "time", banned...) {
				fn := analysis.FuncOf(pass.TypesInfo, call)
				pass.Reportf(call.Pos(),
					"time.%s reads the wall clock inside the deterministic core; use simulated time (event timestamps) or move the measurement to a substrate package",
					fn.Name())
			}
			return true
		})
	}
	return nil
}
