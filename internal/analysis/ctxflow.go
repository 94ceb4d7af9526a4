package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces context threading on the request paths of the robust
// ladder, the lifecycle manager, the soak harness and the estimation
// service: those packages receive deadlines and cancellation from their
// callers, so
//
//   - context.Background() / context.TODO() must not be minted inside them —
//     a fresh root context silently detaches the callee from the caller's
//     deadline and the budgeted-run machinery it feeds. The single allowed
//     minting site is func main of a package main: a binary's entrypoint has
//     no caller to inherit from, so the process-root context is minted there
//     and threaded down ("no minted roots past main");
//   - nil must never be passed where a callee expects a context.Context;
//   - a function that carries a ctx parameter must not sleep blindly:
//     calling time.Sleep directly, or calling a module function without a
//     ctx parameter that (transitively) sleeps, parks the request where
//     cancellation cannot reach it. The transitive part rides on
//     "ctxflow.sleeps" facts exported for every analyzed package, so a
//     sleeper buried two packages down is still visible at the call site.
type CtxFlow struct {
	// Scope lists package-path prefixes/substrings the reporting applies to;
	// sleep facts are exported for every package so cross-package callees
	// resolve.
	Scope []string
}

// NewCtxFlow returns the analyzer scoped to the request-path packages.
func NewCtxFlow() *CtxFlow {
	return &CtxFlow{Scope: []string{
		"condsel/internal/robust",
		"condsel/internal/lifecycle",
		"condsel/internal/soak",
		"condsel/internal/serve",
		"condsel/internal/cluster",
		"condsel/cmd/sitserve",
		"condsel/cmd/sitnode",
		"testdata/src/ctxflow",
	}}
}

// Name implements Analyzer.
func (*CtxFlow) Name() string { return "ctxflow" }

// Doc implements Analyzer.
func (*CtxFlow) Doc() string {
	return "request paths thread the caller's ctx: no context.Background/TODO minting, no nil contexts, no blind sleeps in or below ctx-carrying functions"
}

const sleepsFact = "ctxflow.sleeps"

// Run implements Analyzer.
func (a *CtxFlow) Run(pass *Pass) {
	a.exportSleepFacts(pass)
	if !inScope(pass.Path, a.Scope) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a.checkFunc(pass, fd)
		}
	}
}

// exportSleepFacts records, to a package-local fixed point, which functions
// reach time.Sleep through static calls (function literals excluded — a
// closure sleeps on whatever goroutine invokes it, not its definer's).
func (a *CtxFlow) exportSleepFacts(pass *Pass) {
	type fnDecl struct {
		fn *types.Func
		fd *ast.FuncDecl
	}
	var fns []fnDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					fns = append(fns, fnDecl{fn, fd})
				}
			}
		}
	}
	facts := pass.Session.Facts()
	for changed := true; changed; {
		changed = false
		for _, e := range fns {
			if facts.Has(e.fn, sleepsFact) {
				continue
			}
			sleeps := false
			walkWithStack(e.fd.Body, func(n ast.Node, _ []ast.Node) bool {
				if sleeps {
					return false
				}
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					callee := CalleeOf(pass.Info, call)
					if isTimeSleep(callee) || facts.Has(callee, sleepsFact) {
						sleeps = true
						return false
					}
				}
				return true
			})
			if sleeps {
				facts.Export(e.fn, sleepsFact)
				changed = true
			}
		}
	}
}

// checkFunc applies the three rules to one declaration.
func (a *CtxFlow) checkFunc(pass *Pass, fd *ast.FuncDecl) {
	hasCtx := funcHasCtxParam(pass, fd)
	walkWithStack(fd.Body, func(n ast.Node, _ []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := CalleeOf(pass.Info, call)

		// Rule 1: no minted root contexts anywhere in scoped packages — except
		// func main of a package main, the one function with no caller whose
		// ctx it could thread. Everything below main inherits that root.
		if isContextFunc(callee, "Background") || isContextFunc(callee, "TODO") {
			if !isMainEntrypoint(pass, fd) {
				pass.Reportf(call.Pos(),
					"context.%s() minted on a request path: thread the caller's ctx instead", callee.Name())
			}
			return true
		}

		// Rule 2: no nil contexts.
		if callee != nil {
			sig, _ := callee.Type().(*types.Signature)
			for i, arg := range call.Args {
				if sig == nil || i >= sig.Params().Len() {
					break
				}
				if !isContextType(sig.Params().At(i).Type()) {
					continue
				}
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
					if _, isNil := pass.ObjectOf(id).(*types.Nil); isNil {
						pass.Reportf(arg.Pos(),
							"nil passed as the context.Context argument of %s: pass the caller's ctx", callee.Name())
					}
				}
			}
		}

		// Rule 3: no blind sleeps where a ctx is in hand.
		if hasCtx {
			if isTimeSleep(callee) {
				pass.Reportf(call.Pos(),
					"time.Sleep in a ctx-carrying function: select on ctx.Done() with a timer so cancellation interrupts the wait")
			} else if callee != nil && !funcTakesCtx(callee) && pass.Session.Facts().Has(callee, sleepsFact) {
				pass.Reportf(call.Pos(),
					"%s sleeps without observing ctx: thread ctx into it so cancellation interrupts the wait", callee.Name())
			}
		}
		return true
	})
}

// funcHasCtxParam reports whether the declaration takes a context.Context
// parameter.
func funcHasCtxParam(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if isContextType(pass.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// funcTakesCtx reports whether fn's signature has a context.Context
// parameter.
func funcTakesCtx(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isMainEntrypoint reports whether fd is func main of a package main — the
// one place a scoped binary is allowed to mint its process-root context.
func isMainEntrypoint(pass *Pass, fd *ast.FuncDecl) bool {
	return pass.Pkg != nil && pass.Pkg.Name() == "main" &&
		fd.Recv == nil && fd.Name.Name == "main"
}

// isContextType reports whether t is context.Context (or an alias of it).
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isContextFunc reports whether fn is context.<name>.
func isContextFunc(fn *types.Func, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" && fn.Name() == name
}

// isTimeSleep reports whether fn is time.Sleep.
func isTimeSleep(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep"
}
