// Package analysis is a minimal, dependency-free re-statement of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics. The build
// environment for this repository bakes in only the standard library, so
// rather than depending on x/tools the determinism-lint suite (see the
// sibling analyzer packages and cmd/detlint) runs on this shim.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check of the determinism contract.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI output.
	Name string

	// Doc is the analyzer's documentation: the rule it enforces, the
	// packages it applies to, and the escape hatches it honors.
	Doc string

	// Scope reports whether the analyzer applies to a package with the
	// given import path. A nil Scope means every package. Drivers (the
	// detlint multichecker, linttest) consult it before running the
	// analyzer; fixture packages — any path with a "/testdata/" element —
	// are conventionally always in scope so analyzers can be exercised
	// outside the production tree.
	Scope func(pkgPath string) bool

	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass is one (analyzer, package) unit of work, carrying the package's
// syntax and type information plus the diagnostic sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. Drivers install it.
	Report func(Diagnostic)

	annotated map[annKey]bool // lazily built //lint:deterministic line set
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// DeterministicTag is the justification-comment tag honored by the
// order-sensitive analyzers (maporder, goroutineorder): a comment of the
// form
//
//	//lint:deterministic <why this site cannot break determinism>
//
// on the flagged statement's line, or on the line directly above it,
// suppresses the finding. The tag is an audited allowlist, not an off
// switch — reviewers grep for it, so the reason is part of the contract.
const DeterministicTag = "//lint:deterministic"

type annKey struct {
	file string
	line int
}

// Deterministic reports whether the source line of pos carries (or is
// directly preceded by) a DeterministicTag justification comment.
func (p *Pass) Deterministic(pos token.Pos) bool {
	if p.annotated == nil {
		p.annotated = map[annKey]bool{}
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, DeterministicTag) {
						continue
					}
					cp := p.Fset.Position(c.Pos())
					// The annotation covers its own line (trailing
					// comment) and the next one (comment-above form).
					p.annotated[annKey{cp.Filename, cp.Line}] = true
					p.annotated[annKey{cp.Filename, cp.Line + 1}] = true
				}
			}
		}
	}
	pp := p.Fset.Position(pos)
	return p.annotated[annKey{pp.Filename, pp.Line}]
}

// PathScope builds a Scope function matching the given import-path
// prefixes (a prefix matches itself and any subpackage). Packages under a
// testdata directory are always in scope, so analyzer fixtures exercise
// the rule regardless of where they live.
func PathScope(prefixes ...string) func(string) bool {
	return func(path string) bool {
		if strings.Contains(path, "/testdata/") {
			return true
		}
		for _, pre := range prefixes {
			if path == pre || strings.HasPrefix(path, pre+"/") {
				return true
			}
		}
		return false
	}
}

// FuncOf resolves the called function object of a call expression, seeing
// through parenthesization. It returns nil for calls of non-functions
// (conversions, builtins, function-typed variables).
func FuncOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// IsPkgFunc reports whether call invokes a package-level function (no
// receiver) of the package with import path pkg whose name is one of
// names; an empty names list matches any function of the package.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkg string, names ...string) bool {
	f := FuncOf(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != pkg {
		return false
	}
	if sig, ok := f.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}
