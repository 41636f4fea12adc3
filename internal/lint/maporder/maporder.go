// Package maporder flags map iteration whose order can leak into output.
//
// Go randomizes map iteration order per run, so a `range` over a map is
// fine for order-insensitive reductions (counting, set building) but
// poisonous the moment its body feeds an order-sensitive sink. This
// repository pins cell JSON, campaign reports and schedule fingerprints
// byte-for-byte; one unsorted map range on any of those paths is a flaky
// golden test. The analyzer reports a range over a map value whose body
// reaches:
//
//   - an encoding/json call (Marshal, Encoder.Encode, ...);
//   - fmt output (Printf/Fprintf/Sprintf/Errorf/...);
//   - a hash write (any method of hash, hash/*, or crypto/* types);
//   - an append whose accumulated slice is returned by the enclosing
//     function — the classic "collect map entries" helper, whose callers
//     inherit the random order.
//
// Escape hatches, both exercised by fixtures:
//
//   - the collect-then-sort idiom: if the appended slice is also passed
//     to a sort (sort.* / slices.Sort*) call in the same function, the
//     range is the canonical sortedKeys pattern and is not reported;
//   - a //lint:deterministic justification comment on (or directly
//     above) the range statement suppresses the finding.
//
// Scope: the whole module (any package path); map-order bugs in cmd/
// table printers are as real as in the simulator.
package maporder

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"github.com/absmac/absmac/internal/lint/analysis"
)

// Analyzer is the maporder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag range-over-map whose body feeds JSON, fmt, hash or returned-append sinks; sort keys first or justify with " + analysis.DeterministicTag,
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// walkLocal visits n without descending into nested function literals:
// per-function facts (returns, sort calls, map ranges) belong to exactly
// one function body.
func walkLocal(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return visit(m)
	})
}

// checkFunc analyzes one function body.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo

	// Objects whose value is returned by this function, and objects
	// passed to a sort call anywhere in it.
	returned := map[types.Object]bool{}
	sorted := map[types.Object]bool{}
	walkLocal(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						returned[obj] = true
					}
				}
			}
		case *ast.CallExpr:
			if analysis.IsPkgFunc(info, n, "sort") || analysis.IsPkgFunc(info, n, "slices") {
				for _, arg := range n.Args {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil {
							sorted[obj] = true
						}
					}
				}
			}
		}
		return true
	})

	walkLocal(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if pass.Deterministic(rs.Pos()) {
			return true
		}
		if sink := findSink(pass, rs.Body, returned, sorted); sink != "" {
			pass.Reportf(rs.Pos(), "range over map %s feeds %s in random order; iterate a sorted key slice, or justify with a %s comment",
				nodeString(pass.Fset, rs.X), sink, analysis.DeterministicTag)
		}
		return true
	})
}

// findSink scans a map-range body (nested closures included: they run
// per-iteration) for the first order-sensitive sink and describes it.
// An empty result means the iteration looks order-insensitive.
func findSink(pass *analysis.Pass, body *ast.BlockStmt, returned, sorted map[types.Object]bool) string {
	info := pass.TypesInfo
	sink := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := analysis.FuncOf(info, n)
			if fn != nil && fn.Pkg() != nil {
				switch path := fn.Pkg().Path(); {
				case path == "encoding/json":
					sink = "encoding/json (" + fn.Name() + ")"
				case path == "fmt":
					sink = "fmt output (fmt." + fn.Name() + ")"
				case isHashPkg(path):
					sink = "a hash (" + path + "." + fn.Name() + ")"
				}
			}
			if sink == "" {
				// Method calls on hash types: hash.Hash embeds io.Writer,
				// so Write resolves to package io — classify by the
				// receiver's type instead of the method's.
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
						if path := namedPkgPath(s.Recv()); isHashPkg(path) {
							sink = "a hash (" + path + " " + sel.Sel.Name + ")"
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && isAppend(info, call) {
					sink = "an append returned from inside the loop"
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isAppend(info, call) || i >= len(n.Lhs) {
					continue
				}
				id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Uses[id]
				if obj == nil {
					obj = info.Defs[id]
				}
				if obj != nil && returned[obj] && !sorted[obj] {
					sink = fmt.Sprintf("append to %q, which is returned unsorted", id.Name)
				}
			}
		}
		return sink == ""
	})
	return sink
}

// isHashPkg reports whether a package path hosts hashing types: the hash
// interfaces themselves, the hash/* implementations, and crypto/*.
func isHashPkg(path string) bool {
	return path == "hash" || strings.HasPrefix(path, "hash/") || strings.HasPrefix(path, "crypto/")
}

// namedPkgPath returns the defining package path of a (possibly pointer)
// named type, or "" when the type has none.
func namedPkgPath(t types.Type) string {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path()
}

// isAppend reports whether call invokes the append builtin.
func isAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// nodeString renders a (small) expression for a diagnostic message.
func nodeString(fset *token.FileSet, n ast.Node) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, fset, n); err != nil {
		return "value"
	}
	return b.String()
}
