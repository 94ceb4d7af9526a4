package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLeak requires every goroutine spawned with `go` to be able to exit. The
// analyzer flags launches whose body — or any function the body
// transitively calls, across packages — contains a `for {}` loop with no
// way out: no return, no break/goto, no panic, and no select arm receiving
// from a struct{} channel (which covers both ctx.Done() and the
// conventional quit channel).
//
// The divergence rule is deliberately narrow — only unconditional loops with
// no exit statement count — so bounded scans, fixpoint loops (`for changed`)
// and worker loops that return on shutdown all pass. Interprocedurally,
// every analyzed function exports a "goleak.diverges" fact; launch sites
// walk the session call graph, so a divergent loop two packages below the
// `go` statement is still attributed to it.
type GoLeak struct{}

// NewGoLeak returns the analyzer in its default configuration.
func NewGoLeak() *GoLeak { return &GoLeak{} }

// Name implements Analyzer.
func (*GoLeak) Name() string { return "goleak" }

// Doc implements Analyzer.
func (*GoLeak) Doc() string {
	return "every spawned goroutine must be able to exit: no for{} loop without return/break/panic or a Done/quit select, in the body or any transitively called function"
}

const divergesFact = "goleak.diverges"

// Run implements Analyzer.
func (a *GoLeak) Run(pass *Pass) {
	if !moduleWideScope(pass.Path, "goleak") {
		return
	}
	facts := pass.Session.Facts()

	// Export divergence facts for this package's declarations.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if divergentLoop(pass, fd.Body) {
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					facts.Export(fn, divergesFact)
				}
			}
		}
	}

	// Check every launch site of the package.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				if divergentLoop(pass, lit.Body) {
					pass.Reportf(g.Pos(),
						"goroutine body contains a for{} loop with no exit: add a ctx.Done()/quit select or a return path")
				} else if div := a.reachableDivergent(pass, referencedFuncs(pass, lit.Body)); div != nil {
					pass.Reportf(g.Pos(),
						"goroutine reaches %s, whose for{} loop has no exit: add a ctx.Done()/quit select or a return path", div.Name())
				}
				return true
			}
			if fn := CalleeOf(pass.Info, g.Call); fn != nil {
				if div := a.reachableDivergent(pass, []*types.Func{fn}); div != nil {
					pass.Reportf(g.Pos(),
						"goroutine reaches %s, whose for{} loop has no exit: add a ctx.Done()/quit select or a return path", div.Name())
				}
			}
			return true
		})
	}
}

// reachableDivergent walks the call graph from the roots and returns the
// first function (in deterministic BFS order) carrying the diverges fact.
func (a *GoLeak) reachableDivergent(pass *Pass, roots []*types.Func) *types.Func {
	facts := pass.Session.Facts()
	graph := pass.Session.Graph()
	seen := make(map[*types.Func]bool)
	queue := append([]*types.Func(nil), roots...)
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if fn == nil || seen[fn] {
			continue
		}
		seen[fn] = true
		if facts.Has(fn, divergesFact) {
			return fn
		}
		queue = append(queue, graph.Callees(fn)...)
	}
	return nil
}

// referencedFuncs collects the declared functions a body references (calls
// or mentions), in source order — the launch roots of a goroutine literal.
func referencedFuncs(pass *Pass, body ast.Node) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		var id *ast.Ident
		switch e := n.(type) {
		case *ast.Ident:
			id = e
		case *ast.SelectorExpr:
			id = e.Sel
		default:
			return true
		}
		if fn, ok := pass.Info.Uses[id].(*types.Func); ok && !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
		return true
	})
	return out
}

// divergentLoop reports whether the body contains an unconditional for{}
// loop with no exit, outside nested function literals (those run on their
// own goroutines' schedules and are checked at their own launch sites).
func divergentLoop(pass *Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil || loop.Post != nil {
			return true
		}
		if !loopHasExit(pass, loop.Body) {
			found = true
			return false
		}
		return true
	})
	return found
}

// loopHasExit reports whether the loop body contains any statement that can
// leave the loop: return, break, goto, a panic/Goexit/Exit call, or a select
// arm receiving from a struct{} channel (ctx.Done() or a quit channel).
func loopHasExit(pass *Pass, body *ast.BlockStmt) bool {
	exits := false
	ast.Inspect(body, func(n ast.Node) bool {
		if exits {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			exits = true
		case *ast.BranchStmt:
			if n.Tok == token.BREAK || n.Tok == token.GOTO {
				exits = true
			}
		case *ast.CallExpr:
			if isPanicky(pass, n) {
				exits = true
			}
		case *ast.CommClause:
			if n.Comm != nil && commReceivesQuit(pass, n.Comm) {
				exits = true
			}
		}
		return !exits
	})
	return exits
}

// commReceivesQuit reports whether the comm clause receives from a channel
// of element type struct{} — the shape of both ctx.Done() and conventional
// quit channels.
func commReceivesQuit(pass *Pass, comm ast.Stmt) bool {
	var expr ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		expr = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			expr = s.Rhs[0]
		}
	}
	un, ok := expr.(*ast.UnaryExpr)
	if !ok {
		return false
	}
	ch, ok := pass.TypeOf(un.X).Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// isPanicky reports whether the call never returns: panic, runtime.Goexit,
// os.Exit, log.Fatal*.
func isPanicky(pass *Pass, call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin && id.Name == "panic" {
			return true
		}
	}
	fn := CalleeOf(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "runtime":
		return fn.Name() == "Goexit"
	case "os":
		return fn.Name() == "Exit"
	case "log":
		return fn.Name() == "Fatal" || fn.Name() == "Fatalf" || fn.Name() == "Fatalln"
	}
	return false
}
