package analysis

import (
	"go/ast"
	"go/types"
)

// CallGraph is the static, module-level call graph a Session grows one
// package at a time. Nodes are declared functions and methods
// (*types.Func); an edge f→g means f's body contains a static call to g or
// a reference to g (a method value or function value passed along — the
// conservative "may call" reading). Calls through interfaces, function
// variables and channels produce no edge: the analyzers built on top treat
// absence of an edge permissively.
//
// Function-literal bodies are attributed to their enclosing declaration —
// a closure launched or invoked by f is reachable code of f for the
// purposes of summary facts.
type CallGraph struct {
	callees map[*types.Func][]*types.Func
	edgeSet map[*types.Func]map[*types.Func]bool
}

// NewCallGraph returns an empty graph.
func NewCallGraph() *CallGraph {
	return &CallGraph{
		callees: make(map[*types.Func][]*types.Func),
		edgeSet: make(map[*types.Func]map[*types.Func]bool),
	}
}

// AddPackage indexes every function declaration of the package and its
// outgoing call/reference edges. Callees living in other (earlier-analyzed
// or merely type-checked) packages resolve to their canonical objects, so
// cross-package edges need no fixup.
func (g *CallGraph) AddPackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.addEdges(pkg, fn, fd.Body)
		}
	}
}

// addEdges records an edge for every *types.Func referenced in body,
// in source order (keeping Callees deterministic).
func (g *CallGraph) addEdges(pkg *Package, from *types.Func, body ast.Node) {
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
		if callee, ok := pkg.Info.Uses[id].(*types.Func); ok {
			set := g.edgeSet[from]
			if set == nil {
				set = make(map[*types.Func]bool)
				g.edgeSet[from] = set
			}
			if !set[callee] {
				set[callee] = true
				g.callees[from] = append(g.callees[from], callee)
			}
		}
		return true
	})
}

// Callees returns fn's outgoing edges in source order.
func (g *CallGraph) Callees(fn *types.Func) []*types.Func { return g.callees[fn] }

// CalleeOf resolves a call expression to the *types.Func it statically
// invokes (plain function call or method call), or nil for dynamic calls,
// conversions and builtins.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
