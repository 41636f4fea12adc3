// Package goroutineorder polices how worker goroutines publish results.
//
// Every parallel phase in this repository — sweep cell workers, the
// explorer's replay pool, the width-invariant parallel shrinker — is
// deterministic for one reason: a worker may only publish into a slot the
// submitter addressed in advance (results[i] = ...), or send on a channel
// whose consumer reduces in candidate order. The moment a goroutine
// appends to a shared slice, writes a shared map, or mutates a captured
// scalar, result order starts depending on goroutine interleaving and
// "byte-identical at workers 1/2/8" dies (even when a mutex makes the
// race detector happy — mutexes serialize, they don't order).
//
// The analyzer inspects function literals that run concurrently — the
// body of a `go` statement, or a literal passed to a pool-submission
// method (submit/Submit/Go, the evalPool convention) — and reports, for
// captured (free) variables:
//
//   - x = ... / x += ... / x++ — scalar write to a captured variable;
//   - x = append(x, ...)       — order-dependent append to a captured slice;
//   - m[k] = ...               — write to a captured map;
//   - *p = ...                 — write through a captured pointer;
//   - x.f = ...                — field write on a captured value.
//
// Index writes to captured slices/arrays (results[i] = ...) are the
// sanctioned pattern and are never reported; channel sends likewise.
// A //lint:deterministic justification comment on (or directly above)
// the offending statement suppresses a finding — e.g. a single-task
// closure whose completion is awaited before the result is read.
//
// Scope: the deterministic layers — internal/sim, internal/graph,
// internal/harness, internal/explore, internal/baseline, internal/ext,
// internal/metrics, internal/critpath, internal/core, internal/omega.
package goroutineorder

import (
	"go/ast"
	"go/types"

	"github.com/absmac/absmac/internal/lint/analysis"
)

// Analyzer is the goroutineorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "goroutineorder",
	Doc:  "worker goroutines must publish results index-addressed or via channels consumed in candidate order, not by appending/mutating captured state",
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

// submitters are method/function names that execute a function-literal
// argument on another goroutine (the evalPool convention). runOne is
// deliberately absent: it runs a single closure and waits, so writes it
// makes are ordered by the join edge.
var submitters = map[string]bool{"submit": true, "Submit": true, "Go": true}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					checkWorker(pass, lit)
				}
			case *ast.CallExpr:
				if !isSubmitter(n) {
					return true
				}
				for _, arg := range n.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						checkWorker(pass, lit)
					}
				}
			}
			return true
		})
	}
	return nil
}

// isSubmitter reports whether call is a pool-submission call by name
// (p.submit(fn), pool.Go(fn), ...). Name-based on purpose: the pool type
// is unexported and the convention is part of this repo's contract.
func isSubmitter(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return submitters[fun.Sel.Name]
	case *ast.Ident:
		return submitters[fun.Name]
	}
	return false
}

// checkWorker walks one concurrently-executing literal (nested literals
// included — they run on the same goroutine) for unordered publications.
func checkWorker(pass *analysis.Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				appendToSelf := false
				if i < len(n.Rhs) {
					if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok {
						appendToSelf = isAppend(pass.TypesInfo, call)
					}
				}
				checkTarget(pass, lit, lhs, appendToSelf)
			}
		case *ast.IncDecStmt:
			checkTarget(pass, lit, n.X, false)
		}
		return true
	})
}

// checkTarget reports lhs if it publishes through captured state in an
// order-dependent way.
func checkTarget(pass *analysis.Pass, lit *ast.FuncLit, lhs ast.Expr, appendToSelf bool) {
	if pass.Deterministic(lhs.Pos()) {
		return
	}
	const remedy = "; publish index-addressed (results[i] = ...) or send on a channel reduced in candidate order"
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if v := freeVar(pass, lit, lhs); v != nil {
			if appendToSelf {
				pass.Reportf(lhs.Pos(),
					"append to %q captured by a worker goroutine: element order depends on interleaving"+remedy, v.Name())
			} else {
				pass.Reportf(lhs.Pos(),
					"write to %q captured by a worker goroutine: last writer wins nondeterministically"+remedy, v.Name())
			}
		}
	case *ast.IndexExpr:
		base, ok := ast.Unparen(lhs.X).(*ast.Ident)
		if !ok {
			return
		}
		v := freeVar(pass, lit, base)
		if v == nil {
			return
		}
		if _, isMap := v.Type().Underlying().(*types.Map); isMap {
			pass.Reportf(lhs.Pos(),
				"write to captured map %q from a worker goroutine: unsynchronized and unordered"+remedy, v.Name())
		}
		// Captured slice/array with a per-task index is the sanctioned
		// publication pattern — never reported.
	case *ast.StarExpr:
		if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
			if v := freeVar(pass, lit, id); v != nil {
				pass.Reportf(lhs.Pos(),
					"write through captured pointer %q from a worker goroutine"+remedy, v.Name())
			}
		}
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
			if v := freeVar(pass, lit, id); v != nil {
				pass.Reportf(lhs.Pos(),
					"field write on %q captured by a worker goroutine"+remedy, v.Name())
			}
		}
	}
}

// freeVar resolves id to a variable declared outside lit (captured from
// an enclosing scope or package-level); nil for locals, fields, and
// non-variables.
func freeVar(pass *analysis.Pass, lit *ast.FuncLit, id *ast.Ident) *types.Var {
	if pass.TypesInfo.Defs[id] != nil {
		return nil // declaration site: a local
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
		return nil // declared inside the literal (params included)
	}
	return v
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
