package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// HotAlloc flags per-operation allocation sources inside the estimation hot
// path's key-builder files: fmt formatting calls, string concatenation, and
// writes into string-valued (interning) maps.
//
// The zero-allocation contract (TestCachedPathZeroAllocs, the CI alloc gate)
// says a cached estimate performs no heap allocation. Every violation this
// analyzer has ever caught came from key building — a Sprintf'd cache key, a
// "g%d|" prefix concat, an interning-map fill — so the check is aimed there:
// the DP core, the shared cache, and the predicate-key primitives. Rendering
// and diagnostics code is exempt by name (String, Error, Explain, Name, Doc,
// Format*, Render*): those run off the hot path by design and owe the reader
// strings, not signatures. A genuinely cold site inside a checked file takes
// a //lint:ignore hotalloc directive with the argument why it cannot run on
// a cached read.
type HotAlloc struct {
	// Scope lists package-path prefixes/substrings the analyzer applies to.
	Scope []string
	// Files optionally restricts a scope entry to specific file basenames.
	// An entry with no restriction is checked file-by-file in full.
	Files map[string][]string
}

// NewHotAlloc returns the analyzer scoped to the hot path's key-building
// files plus its own fixtures.
func NewHotAlloc() *HotAlloc {
	return &HotAlloc{
		Scope: []string{
			"condsel/internal/core",
			"condsel/internal/selcache",
			"condsel/internal/engine",
			"condsel/internal/sit",
			"testdata/src/hotalloc",
		},
		Files: map[string][]string{
			// The DP core's hot files. Explain/bench/budget/robust helpers
			// in the same package render for humans and are off-path.
			"condsel/internal/core": {"core.go", "cache.go", "factor.go", "joincache.go"},
			// The predicate-key primitives and the DP's per-run lookup
			// state; eval/catalog/query code formats errors and names,
			// which never runs per cached estimate.
			"condsel/internal/engine": {"pred.go", "sig.go", "sets.go", "compindex.go", "flattable.go"},
			// SIT matching: the candidate matcher and the expression
			// membership tests the error models call per scored SIT.
			// Builders, pools and serialization run at construction.
			"condsel/internal/sit": {"matcher.go", "sit.go"},
		},
	}
}

// Name implements Analyzer.
func (*HotAlloc) Name() string { return "hotalloc" }

// Doc implements Analyzer.
func (*HotAlloc) Doc() string {
	return "hot-path key builders must not allocate: no fmt formatting, string concatenation, or interning-map writes outside cold paths"
}

// hotAllocFmtFuncs are the fmt functions that allocate a string per call.
var hotAllocFmtFuncs = map[string]bool{
	"Sprintf":  true,
	"Sprint":   true,
	"Sprintln": true,
	"Errorf":   true,
}

// hotAllocExempt reports whether a function renders for humans by
// convention and is therefore off the hot path.
func hotAllocExempt(name string) bool {
	switch name {
	case "String", "Error", "Explain", "Name", "Doc":
		return true
	}
	return strings.HasPrefix(name, "Format") || strings.HasPrefix(name, "Render")
}

// Run implements Analyzer.
func (a *HotAlloc) Run(pass *Pass) {
	entry := ""
	for _, s := range a.Scope {
		if inScope(pass.Path, []string{s}) {
			entry = s
			break
		}
	}
	if entry == "" {
		return
	}
	only := a.Files[entry]

	for _, f := range pass.Files {
		if len(only) > 0 {
			base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
			allowed := false
			for _, want := range only {
				if base == want {
					allowed = true
					break
				}
			}
			if !allowed {
				continue
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || hotAllocExempt(fd.Name.Name) {
				continue
			}
			a.checkFunc(pass, fd)
		}
	}
}

// checkFunc walks one non-exempt function body.
func (a *HotAlloc) checkFunc(pass *Pass, fd *ast.FuncDecl) {
	walkWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := fmtCallName(pass, n); ok && hotAllocFmtFuncs[name] {
				pass.Reportf(n.Pos(),
					"fmt.%s allocates a string per call in hot-path function %s; derive a packed signature or move this to a cold path",
					name, fd.Name.Name)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(pass.TypeOf(n)) && !parentIsStringConcat(pass, stack) {
				pass.Reportf(n.Pos(),
					"string concatenation allocates in hot-path function %s; derive a packed signature or move this to a cold path",
					fd.Name.Name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(pass.TypeOf(n.Lhs[0])) {
				pass.Reportf(n.Pos(),
					"string += allocates in hot-path function %s; derive a packed signature or move this to a cold path",
					fd.Name.Name)
			}
			for _, lhs := range n.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				t := pass.TypeOf(ix.X)
				if t == nil {
					continue
				}
				m, isMap := t.Underlying().(*types.Map)
				if isMap && isStringType(m.Elem()) {
					pass.Reportf(lhs.Pos(),
						"write into string-valued map in hot-path function %s looks like string interning; intern only on cold compute paths",
						fd.Name.Name)
				}
			}
		}
		return true
	})
}

// fmtCallName resolves a call of the form fmt.<Name>(...) through the
// package import, so aliased imports are still caught and same-named local
// functions are not.
func fmtCallName(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkg, ok := pass.ObjectOf(id).(*types.PkgName)
	if !ok || pkg.Imported().Path() != "fmt" {
		return "", false
	}
	return sel.Sel.Name, true
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// parentIsStringConcat reports whether the node's direct parent is itself a
// string +, so a chain a+b+c produces one diagnostic, not one per operator.
func parentIsStringConcat(pass *Pass, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	p, ok := stack[len(stack)-1].(*ast.BinaryExpr)
	return ok && p.Op == token.ADD && isStringType(pass.TypeOf(p))
}
