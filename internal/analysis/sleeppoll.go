package analysis

import (
	"go/ast"
)

// SleepPoll bans the bug class PR 1 removed by hand: time.Sleep inside a
// for loop in library code is a sleep-poll — it wastes a scheduler slot,
// adds up to the poll interval of latency per iteration, and cannot
// observe cancellation. Use a time.Timer/Ticker inside a select with a
// ctx.Done() case instead. A simulated-overhead site, where the sleep
// *is* the modeled behaviour, carries an ignore directive saying so.
var SleepPoll = &Analyzer{
	Name:      "sleeppoll",
	Doc:       "time.Sleep inside a for loop in library code is a sleep-poll; use a timer in a select with ctx.Done()",
	AppliesTo: internalOnly,
	Run:       runSleepPoll,
}

func runSleepPoll(pass *Pass) {
	for _, f := range pass.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPkgFunc(calleeFunc(pass.Info, call), "time", "Sleep") {
				return
			}
			// Walk outward to the enclosing function boundary; a sleep
			// inside a func literal is attributed to the literal, not to
			// loops around the literal.
			for i := len(stack) - 1; i >= 0; i-- {
				switch stack[i].(type) {
				case *ast.FuncDecl, *ast.FuncLit:
					return
				case *ast.ForStmt, *ast.RangeStmt:
					pass.Reportf(call.Pos(), "time.Sleep inside a for loop (sleep-poll); wait on a timer in a select with ctx.Done() instead")
					return
				}
			}
		})
	}
}
