// Package nowallclock forbids wall-clock reads in the simulated world.
//
// Simulated time is the event queue's logical clock; the moment an
// algorithm, scheduler, or harness consults the machine's clock
// (time.Now, time.Since, time.Until), identical (scenario, seed) runs can
// diverge and schedule replay stops being byte-identical. The analyzer
// reports every call to those functions inside the scoped packages.
//
// Scope: every package under internal/. The cmd/ front-ends and
// examples/ are exempt (they time user-visible work, not simulated
// executions). There is no comment escape hatch: code in the deterministic
// core that genuinely needs a duration measurement belongs in a front-end,
// not behind an annotation.
package nowallclock

import (
	"go/ast"

	"github.com/absmac/absmac/internal/lint/analysis"
)

// Analyzer is the nowallclock analyzer.
var Analyzer = &analysis.Analyzer{
	Name:  "nowallclock",
	Doc:   "forbid time.Now/Since/Until in the simulator and algorithm packages; simulated time is the only clock there",
	Scope: analysis.PathScope("github.com/absmac/absmac/internal"),
	Run:   run,
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
					"time.%s reads the wall clock inside the deterministic core; use simulated time (event timestamps) or move the measurement to a front-end",
					fn.Name())
			}
			return true
		})
	}
	return nil
}
