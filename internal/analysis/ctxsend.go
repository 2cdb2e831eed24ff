package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxSend enforces the cancellation invariant PR 2 fixed by hand: in the
// orchestration packages (internal/core, internal/watch, internal/serve)
// a channel send or receive must not be able to block past context
// cancellation. Concretely the operation must be the communication of a
// select case, and that select must carry a ctx.Done() receive case or a
// default clause. Ranging over a channel is flagged too, since a range
// blocks until the producer closes the channel; provably bounded joins
// get an ignore directive with the boundedness argument as rationale.
var CtxSend = &Analyzer{
	Name: "ctxsend",
	Doc: "channel operations in orchestration packages must sit inside a " +
		"select with a ctx.Done() case (or a default clause)",
	AppliesTo: pathSuffixAny("/internal/core", "/internal/watch", "/internal/serve"),
	Run:       runCtxSend,
}

func runCtxSend(pass *Pass) {
	for _, f := range pass.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.SendStmt:
				if !selectGuarded(pass, n, stack) {
					pass.Reportf(n.Pos(), "channel send outside a select with a ctx.Done() case; a cancelled run can block here forever")
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !selectGuarded(pass, n, stack) {
					pass.Reportf(n.Pos(), "channel receive outside a select with a ctx.Done() case; a cancelled run can block here forever")
				}
			case *ast.RangeStmt:
				if t := pass.Info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						pass.Reportf(n.Pos(), "range over a channel blocks until the producer closes it; prove the close is bounded or select on ctx.Done()")
					}
				}
			}
		})
	}
}

// selectGuarded reports whether node is the communication of a select
// case whose select can observe cancellation (ctx.Done() case) or never
// blocks (default clause).
func selectGuarded(pass *Pass, node ast.Node, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		cc, ok := stack[i].(*ast.CommClause)
		if !ok {
			continue
		}
		// The node must be part of the case's communication, not its body.
		if cc.Comm == nil || node.Pos() < cc.Comm.Pos() || node.End() > cc.Comm.End() {
			return false
		}
		// The walk parent chain is SelectStmt → BlockStmt → CommClause.
		var sel *ast.SelectStmt
		for j := i - 1; j >= 0; j-- {
			if s, ok := stack[j].(*ast.SelectStmt); ok {
				sel = s
				break
			}
		}
		if sel == nil {
			return false
		}
		for _, clause := range sel.Body.List {
			c := clause.(*ast.CommClause)
			if c.Comm == nil || isDoneComm(pass, c.Comm) {
				return true
			}
		}
		return false
	}
	return false
}

// isDoneComm reports whether the select communication stmt receives from
// a context's Done channel (`case <-ctx.Done():`, with or without an
// assignment).
func isDoneComm(pass *Pass, stmt ast.Stmt) bool {
	var expr ast.Expr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		expr = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			expr = s.Rhs[0]
		}
	}
	recv, ok := ast.Unparen(expr).(*ast.UnaryExpr)
	if !ok || recv.Op != token.ARROW {
		return false
	}
	call, ok := ast.Unparen(recv.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(pass.Info, call)
	return fn != nil && fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "context"
}
