package analysis

import "go/ast"

// ArenaPair keeps the tensor pool honest: pooling only amortizes
// allocations (PR 1's 305→15 allocs/op win) if every Get is returned
// with a Put. A function that Gets and never Puts silently regresses the
// hot path back to the allocator. The check is per function declaration
// and covers both ownership classes the tensor package hands out:
//
//   - Tensors: tensor.Get/tensor.Put. A function calling Get must either
//     call Put (directly, deferred, or in a nested literal) or visibly
//     transfer ownership by returning the gotten tensor — the
//     Layer.Infer contract, where the caller recycles.
//   - Int8 scratch: tensor.GetI8/tensor.PutI8 — the quantized inference
//     path's activation and im2col buffers. They form their own
//     ownership class: a PutI8 does not excuse a leaked float tensor,
//     nor vice versa.
//
// Any other transfer (storing the tensor in a field, handing it to a
// goroutine) carries an ignore directive naming the new owner.
var ArenaPair = &Analyzer{
	Name: "arenapair",
	Doc:  "a function that calls tensor.Get (or GetI8) must Put (or PutI8) the buffer back, return it to the caller, or document the ownership transfer with an ignore directive",
	Run:  runArenaPair,
}

const tensorPkg = "github.com/eoml/eoml/internal/tensor"

func runArenaPair(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkArenaPairs(pass, fd)
			}
		}
	}
}

func checkArenaPairs(pass *Pass, fd *ast.FuncDecl) {
	var gets, getI8s []*ast.CallExpr
	puts, putI8s := 0, 0
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		switch {
		case isPkgFunc(fn, tensorPkg, "Get"):
			gets = append(gets, call)
		case isPkgFunc(fn, tensorPkg, "Put"):
			puts++
		case isPkgFunc(fn, tensorPkg, "GetI8"):
			getI8s = append(getI8s, call)
		case isPkgFunc(fn, tensorPkg, "PutI8"):
			putI8s++
		}
		return true
	})
	// Any Put in the function is taken as evidence of pairing
	// discipline; per-value matching is the reviewer's job, count matching
	// is ours.
	var parents map[ast.Node]ast.Node
	flag := func(calls []*ast.CallExpr, msg string) {
		if parents == nil {
			parents = parentMap(fd.Body)
		}
		for _, call := range calls {
			if returnsOwnership(pass, parents, fd, call) {
				continue
			}
			pass.Reportf(call.Pos(), msg, fd.Name.Name)
		}
	}
	if len(gets) > 0 && puts == 0 {
		flag(gets, "tensor.Get without any Put in %s; the tensor never returns to the pool")
	}
	if len(getI8s) > 0 && putI8s == 0 {
		flag(getI8s, "tensor.GetI8 without any PutI8 in %s; the int8 scratch never returns to the pool")
	}
}

// returnsOwnership reports whether the Get call's result is
// returned by the function, directly or through the variable it is
// assigned to.
func returnsOwnership(pass *Pass, parents map[ast.Node]ast.Node, fd *ast.FuncDecl, get *ast.CallExpr) bool {
	switch p := parents[get].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.AssignStmt:
		if len(p.Lhs) != 1 || len(p.Rhs) != 1 {
			return false
		}
		id, ok := p.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return false
		}
		obj := pass.Info.ObjectOf(id)
		if obj == nil {
			return false
		}
		returned := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			// The returned expression must BE the tensor variable;
			// returning a field or element of it still leaks the buffer.
			for _, res := range ret.Results {
				if use, ok := ast.Unparen(res).(*ast.Ident); ok && pass.Info.ObjectOf(use) == obj {
					returned = true
				}
			}
			return !returned
		})
		return returned
	}
	return false
}
