package analysis

import (
	"go/ast"
	"go/types"
)

// LockOrder enforces the module's locking invariant: within a package, a
// method that holds a sync.Mutex/RWMutex field of its receiver must not call
// another method of the same receiver that (possibly transitively) acquires
// the same mutex — Go mutexes are not reentrant, so that is a guaranteed
// self-deadlock. The check walks statements in source order, tracking
// Lock/Unlock (and RLock/RUnlock) pairs including `defer x.mu.Unlock()`.
//
// The analyzer is module-wide: lock discipline is not package-specific.
// (Copies of sync/atomic values are go vet's copylocks check.)
type LockOrder struct{}

// NewLockOrder returns the analyzer.
func NewLockOrder() *LockOrder { return &LockOrder{} }

// Name implements Analyzer.
func (*LockOrder) Name() string { return "lockorder" }

// Doc implements Analyzer.
func (*LockOrder) Doc() string {
	return "no method calls that re-acquire a held receiver mutex"
}

// Run implements Analyzer.
func (a *LockOrder) Run(pass *Pass) {
	mayLock := lockSets(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkHeldCalls(pass, fd, mayLock)
		}
	}
}

// lockKey identifies one mutex: the variable (or receiver) object it hangs
// off and the mutex field object, so `c.mu` in two methods of the same type
// unify while distinct shard locals stay distinct.
type lockKey struct {
	holder types.Object
	field  types.Object
}

// mutexField resolves expr of the form X.f where f is a sync.Mutex or
// sync.RWMutex field and X resolves to a plain object (receiver, local,
// package var). Returns the zero key if expr has another shape.
func mutexField(pass *Pass, expr ast.Expr) (lockKey, bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, false
	}
	field := pass.ObjectOf(sel.Sel)
	if field == nil || !isSyncMutex(field.Type()) {
		return lockKey{}, false
	}
	base, ok := sel.X.(*ast.Ident)
	if !ok {
		return lockKey{}, false
	}
	holder := pass.ObjectOf(base)
	if holder == nil {
		return lockKey{}, false
	}
	return lockKey{holder: holder, field: field}, true
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockSets computes, for every function declared in the package, the set of
// receiver mutex fields it may acquire — directly or through calls to other
// same-receiver methods — as a fixed point over the package-local call graph.
func lockSets(pass *Pass) map[types.Object]map[types.Object]bool {
	mayLock := make(map[types.Object]map[types.Object]bool)
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.ObjectOf(fd.Name); obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for fnObj, fd := range decls {
			recv := recvObj(pass, fd)
			set := mayLock[fnObj]
			if set == nil {
				set = make(map[types.Object]bool)
				mayLock[fnObj] = set
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Lock", "RLock":
					if key, ok := mutexField(pass, sel.X); ok && recv != nil && key.holder == recv {
						if !set[key.field] {
							set[key.field] = true
							changed = true
						}
					}
				default:
					// Same-receiver method call: inherit the callee's set.
					base, ok := sel.X.(*ast.Ident)
					if !ok || recv == nil || pass.ObjectOf(base) != recv {
						return true
					}
					callee := pass.ObjectOf(sel.Sel)
					for fldObj := range mayLock[callee] {
						if !set[fldObj] {
							set[fldObj] = true
							changed = true
						}
					}
				}
				return true
			})
		}
	}
	return mayLock
}

// recvObj returns the receiver variable object of a method declaration, or
// nil for plain functions and anonymous receivers.
func recvObj(pass *Pass, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.ObjectOf(fd.Recv.List[0].Names[0])
}

// checkHeldCalls walks the function body in source order tracking which
// mutexes are held and flags same-object calls into methods that may
// re-acquire one of them.
func checkHeldCalls(pass *Pass, fd *ast.FuncDecl, mayLock map[types.Object]map[types.Object]bool) {
	held := make(map[lockKey]bool)
	var walkStmts func(list []ast.Stmt)

	handleCall := func(call *ast.CallExpr, deferred bool) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			if key, ok := mutexField(pass, sel.X); ok && !deferred {
				held[key] = true
			}
			return
		case "Unlock", "RUnlock":
			if key, ok := mutexField(pass, sel.X); ok && !deferred {
				delete(held, key)
			}
			return
		}
		// A call on some object: is one of that object's mutexes held and
		// may the callee re-acquire it?
		base, ok := sel.X.(*ast.Ident)
		if !ok {
			return
		}
		holder := pass.ObjectOf(base)
		callee := pass.ObjectOf(sel.Sel)
		if holder == nil || callee == nil {
			return
		}
		for fldObj := range mayLock[callee] {
			if held[lockKey{holder: holder, field: fldObj}] {
				pass.Reportf(call.Pos(),
					"call to %s.%s while %s.%s is held: %s may re-acquire it (self-deadlock)",
					base.Name, sel.Sel.Name, base.Name, fldObj.Name(), sel.Sel.Name)
			}
		}
	}

	walkStmts = func(list []ast.Stmt) {
		for _, stmt := range list {
			switch s := stmt.(type) {
			case *ast.DeferStmt:
				// defer x.mu.Unlock() keeps the mutex held to return; any
				// other deferred call is checked against the current state.
				handleCall(s.Call, true)
			case *ast.BlockStmt:
				walkStmts(s.List)
			case *ast.IfStmt:
				if s.Init != nil {
					walkStmts([]ast.Stmt{s.Init})
				}
				walkExprCalls(pass, s.Cond, handleCall)
				walkStmts(s.Body.List)
				if s.Else != nil {
					walkStmts([]ast.Stmt{s.Else})
				}
			case *ast.ForStmt:
				if s.Init != nil {
					walkStmts([]ast.Stmt{s.Init})
				}
				walkStmts(s.Body.List)
			case *ast.RangeStmt:
				walkStmts(s.Body.List)
			case *ast.SwitchStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walkStmts(cc.Body)
					}
				}
			case *ast.TypeSwitchStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walkStmts(cc.Body)
					}
				}
			case *ast.SelectStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						walkStmts(cc.Body)
					}
				}
			case *ast.GoStmt:
				// The goroutine runs with its own lock state.
			default:
				ast.Inspect(stmt, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						handleCall(call, false)
					}
					// Do not descend into function literals: they execute
					// later, under a state we cannot order statically.
					_, isLit := n.(*ast.FuncLit)
					return !isLit
				})
			}
		}
	}
	walkStmts(fd.Body.List)
}

// walkExprCalls applies fn to every call expression within e.
func walkExprCalls(pass *Pass, e ast.Expr, fn func(*ast.CallExpr, bool)) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			fn(call, false)
		}
		return true
	})
}
