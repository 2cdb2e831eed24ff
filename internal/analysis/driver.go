package analysis

import (
	"go/token"
	"sort"
	"strings"
)

// DefaultAnalyzers returns the full eomlvet suite in reporting order:
// the syntactic per-package checks first, then the interprocedural
// call-graph checks (lockguard, ctxflow, locksleep).
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		CtxSend,
		SleepPoll,
		LoneGoroutine,
		CloseCheck,
		ArenaPair,
		PkgDoc,
		LockGuard,
		CtxFlow,
		LockSleep,
	}
}

// internalOnly scopes a check to library code under internal/.
func internalOnly(pkgPath string) bool {
	return strings.Contains(pkgPath, "/internal/")
}

// pathSuffixAny scopes a check to packages whose import path ends in one
// of the given suffixes.
func pathSuffixAny(suffixes ...string) func(string) bool {
	return func(pkgPath string) bool {
		for _, s := range suffixes {
			if strings.HasSuffix(pkgPath, s) {
				return true
			}
		}
		return false
	}
}

// RunModule loads every package in the module rooted at moduleDir and
// runs the analyzers over it, honoring each analyzer's path scope and
// the in-code ignore directives. The returned diagnostics are sorted by
// position with paths relative to the module root; an empty slice means
// the tree holds every invariant.
func RunModule(moduleDir string, analyzers []*Analyzer) ([]Diagnostic, error) {
	loader, err := NewLoader(moduleDir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	hasModuleAnalyzer := false
	for _, a := range analyzers {
		known[a.Name] = true
		if a.RunModule != nil {
			hasModuleAnalyzer = true
		}
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil || (a.AppliesTo != nil && !a.AppliesTo(pkg.Path)) {
				continue
			}
			all = append(all, RunAnalyzer(a, loader.Fset, pkg)...)
		}
	}
	// Interprocedural analyzers share one call graph and fact store over
	// the whole module; their AppliesTo bounds reporting, not analysis.
	if hasModuleAnalyzer {
		graph := BuildCallGraph(loader.Fset, pkgs)
		facts := ComputeFacts(graph)
		for _, a := range analyzers {
			if a.RunModule == nil {
				continue
			}
			all = append(all, runModulePass(a, loader.Fset, pkgs, graph, facts, a.AppliesTo)...)
		}
	}
	// Ignore directives are collected module-wide and applied once, so a
	// directive satisfied by an interprocedural finding is not reported
	// stale by the per-package pass (and vice versa).
	var directives []*ignoreDirective
	for _, pkg := range pkgs {
		directives = append(directives, collectIgnores(loader.Fset, pkg.Files)...)
	}
	all = applyIgnores(all, directives, known)
	for i := range all {
		if rel, ok := strings.CutPrefix(all[i].Pos.Filename, moduleDir+"/"); ok {
			all[i].Pos.Filename = rel
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return all, nil
}

// RunAnalyzer runs one analyzer over one loaded package, ignoring the
// analyzer's path scope (the caller owns scoping decisions).
func RunAnalyzer(a *Analyzer, fset *token.FileSet, pkg *Package) []Diagnostic {
	var out []Diagnostic
	pass := &Pass{
		Fset:   fset,
		Files:  pkg.Files,
		Pkg:    pkg.Types,
		Info:   pkg.Info,
		check:  a.Name,
		report: func(d Diagnostic) { out = append(out, d) },
	}
	a.Run(pass)
	return out
}

// RunModuleAnalyzer runs one interprocedural analyzer over a package
// set with a freshly built call graph and fact store, ignoring the
// analyzer's path scope (the caller owns scoping decisions). The
// driver path (RunModule) shares one graph across analyzers instead.
func RunModuleAnalyzer(a *Analyzer, fset *token.FileSet, pkgs []*Package) []Diagnostic {
	graph := BuildCallGraph(fset, pkgs)
	return runModulePass(a, fset, pkgs, graph, ComputeFacts(graph), nil)
}

func runModulePass(a *Analyzer, fset *token.FileSet, pkgs []*Package, graph *CallGraph, facts *Facts, scope func(string) bool) []Diagnostic {
	var out []Diagnostic
	pass := &ModulePass{
		Fset:   fset,
		Pkgs:   pkgs,
		Graph:  graph,
		Facts:  facts,
		check:  a.Name,
		scope:  scope,
		report: func(d Diagnostic) { out = append(out, d) },
	}
	a.RunModule(pass)
	return out
}
