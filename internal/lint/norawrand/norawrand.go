// Package norawrand forbids ambient randomness in the deterministic core.
//
// Every random decision in the simulator and its surrounding layers —
// scheduler plans, overlay construction, crash schedules, exploration
// walks, ben-or coins — must flow through a *rand.Rand derived from a
// scenario seed, or byte-identical schedule replay and the golden cell
// JSON break silently. The analyzer reports, inside the scoped packages:
//
//   - any call to a math/rand (or math/rand/v2) package-level function
//     (rand.Intn, rand.Shuffle, rand.Perm, ...): these draw from the
//     shared global source, which is both process-global and, since Go
//     1.20, randomly seeded;
//   - rand.New(src) where src is not a direct rand.NewSource /
//     rand.NewPCG / rand.NewChaCha8 call — an opaque source hides the
//     seed from review;
//   - rand.New / rand.NewSource whose seed expression reads the wall
//     clock (time.Now and friends) — seeded in form, nondeterministic in
//     fact.
//
// Scope: internal/sim, internal/graph, internal/harness, internal/explore,
// internal/baseline, internal/ext, internal/metrics, internal/critpath,
// and the paper's algorithms and their Ω, internal/core and internal/omega
// (and their subpackages). The cmd/ front-ends may seed however they
// like. There is deliberately no comment escape hatch:
// unlike iteration order, ambient randomness is never justified in the
// core — plumb a seed instead.
package norawrand

import (
	"go/ast"
	"go/types"

	"github.com/absmac/absmac/internal/lint/analysis"
)

// Analyzer is the norawrand analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "norawrand",
	Doc:  "forbid global/ambient math/rand use in the deterministic core; randomness must come from a seed-derived *rand.Rand",
	Scope: analysis.PathScope(
		"github.com/absmac/absmac/internal/sim",
		"github.com/absmac/absmac/internal/graph",
		"github.com/absmac/absmac/internal/harness",
		"github.com/absmac/absmac/internal/explore",
		"github.com/absmac/absmac/internal/baseline",
		"github.com/absmac/absmac/internal/ext",
		"github.com/absmac/absmac/internal/metrics",
		"github.com/absmac/absmac/internal/critpath",
		"github.com/absmac/absmac/internal/core",
		"github.com/absmac/absmac/internal/omega",
	),
	Run: run,
}

// randPkgs are the import paths treated as "math/rand".
var randPkgs = []string{"math/rand", "math/rand/v2"}

// sourceCtors are the package-level constructors that make a seed
// syntactically visible at the call site; rand.New must be fed one of
// these directly. rand.NewZipf is also allowed anywhere since it consumes
// an already-constructed *rand.Rand.
var sourceCtors = map[string]bool{
	"NewSource":  true, // math/rand
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func run(pass *analysis.Pass) error {
	// Source constructors nested inside a rand.New call are checked by
	// checkNew; the walk marks them here so they are not re-reported when
	// visited on their own (Inspect reaches parents before children).
	handled := map[*ast.CallExpr]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || handled[call] {
				return true
			}
			fn := analysis.FuncOf(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || !isRandPkg(fn.Pkg().Path()) {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods on *rand.Rand etc. are the sanctioned API
			}
			switch name := fn.Name(); {
			case name == "New":
				if len(call.Args) == 1 {
					if src, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok {
						handled[src] = true
					}
				}
				checkNew(pass, call)
			case sourceCtors[name]:
				checkSeedArgs(pass, call)
			case name == "NewZipf":
				// Consumes a *rand.Rand; the Rand's own construction is
				// checked at its site.
			default:
				pass.Reportf(call.Pos(),
					"call to %s.%s uses the global rand source; derive a *rand.Rand from the scenario seed (rand.New(rand.NewSource(seed)))",
					fn.Pkg().Name(), name)
			}
			return true
		})
	}
	return nil
}

// checkNew validates a rand.New call: the source must be a direct
// constructor call so the seed is reviewable, and the seed must not read
// the wall clock.
func checkNew(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	src, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	if !ok || !isSourceCtor(pass, src) {
		pass.Reportf(call.Pos(),
			"rand.New with an opaque source; pass rand.NewSource(seed) (or NewPCG/NewChaCha8) directly so the seed derivation is visible")
		return
	}
	checkSeedArgs(pass, src)
}

// checkSeedArgs reports a source constructor whose seed expression reads
// the wall clock — seeded in form, nondeterministic in fact.
func checkSeedArgs(pass *analysis.Pass, ctor *ast.CallExpr) {
	for _, arg := range ctor.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if analysis.IsPkgFunc(pass.TypesInfo, inner, "time", "Now") {
				pass.Reportf(ctor.Pos(),
					"wall-clock-seeded randomness; derive the seed from the scenario seed, not time.Now")
				return false
			}
			return true
		})
	}
}

func isRandPkg(path string) bool {
	for _, p := range randPkgs {
		if path == p {
			return true
		}
	}
	return false
}

// isSourceCtor reports whether call is a direct rand.NewSource /
// rand.NewPCG / rand.NewChaCha8 call.
func isSourceCtor(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.FuncOf(pass.TypesInfo, call)
	return fn != nil && fn.Pkg() != nil && isRandPkg(fn.Pkg().Path()) && sourceCtors[fn.Name()]
}
