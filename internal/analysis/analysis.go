// Package analysis implements eomlvet, the repo's static-analysis suite.
// It mechanizes the concurrency and resource invariants this codebase has
// already paid to learn in review (see DESIGN.md §10): cancellable channel
// operations in orchestration code, no sleep-polling in library loops,
// joined goroutines, checked Close/Sync/Flush/Rename errors, and paired
// tensor-pool Get/Put.
//
// The suite is deliberately stdlib-only — go/parser, go/ast, go/types and
// the source-mode go/importer — because the module is zero-dependency and
// must stay that way. Analyzers are package-shape agnostic; the driver
// (driver.go) decides which analyzer runs on which import paths.
//
// Findings can be suppressed in-code with a rationale:
//
//	//eomlvet:ignore <check> <why this site is intentionally exempt>
//
// The directive applies to its own line and the line below it, and a
// directive without a rationale is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Diagnostic is one analyzer finding, positioned for editors
// (path/file.go:line:col).
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Check, d.Message)
}

// Analyzer is one named check. Exactly one of Run (per-package) and
// RunModule (interprocedural, whole-module) is set.
type Analyzer struct {
	// Name is the check identifier used in output and ignore directives.
	Name string
	// Doc states the invariant and why it exists.
	Doc string
	// AppliesTo reports whether the check reports findings in the package
	// with the given import path; nil means every package. Interprocedural
	// analyzers still see the whole module for call-graph facts — the
	// scope bounds only where diagnostics may land.
	AppliesTo func(pkgPath string) bool
	// Run inspects one type-checked package.
	Run func(*Pass)
	// RunModule inspects the whole module at once, with the shared call
	// graph and fact store (lockguard, ctxflow, locksleep).
	RunModule func(*ModulePass)
}

// Pass is the per-package view an analyzer inspects.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	check  string
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// ModulePass is the whole-module view an interprocedural analyzer
// inspects: every loaded package, the call graph over them, and the
// propagated fact store. One graph and fact store are shared by all
// module analyzers in a run.
type ModulePass struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Graph *CallGraph
	Facts *Facts

	check  string
	scope  func(pkgPath string) bool
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// InScope reports whether the analyzer may report findings in pkg
// (the analyzer's AppliesTo, applied by the driver; facts still flow
// through out-of-scope packages).
func (p *ModulePass) InScope(pkg *Package) bool {
	return p.scope == nil || p.scope(pkg.Path)
}

// inspectStack walks the file like ast.Inspect while exposing the
// ancestor stack (outermost first, not including n itself).
func inspectStack(f *ast.File, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// calleeFunc resolves the called function or method of call, or nil for
// calls through non-named callees (function values, conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.ObjectOf(id).(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}

// isMethodOn reports whether fn is the method pkgPath.typeName.name
// (pointer or value receiver).
func isMethodOn(fn *types.Func, pkgPath, typeName, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == typeName
}

// returnsError reports whether fn's results include an error.
func returnsError(fn *types.Func) bool {
	results := fn.Type().(*types.Signature).Results()
	for i := 0; i < results.Len(); i++ {
		if named, ok := results.At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return true
		}
	}
	return false
}

// parentMap records each node's parent within root, letting analyzers
// classify how an expression's value is used.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// enclosingFuncName names the innermost function declaration containing
// pos, for use in messages ("<pkg>.<func>"; "<file scope>" outside one).
func enclosingFuncName(files []*ast.File, pos token.Pos) string {
	for _, f := range files {
		if pos < f.Pos() || pos >= f.End() {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
				return fd.Name.Name
			}
		}
	}
	return "<file scope>"
}
