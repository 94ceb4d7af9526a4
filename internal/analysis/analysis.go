// Package analysis is a static-analysis framework over the standard
// library's go/ast and go/types, purpose-built for this module's project
// invariants (bit-identical DP scans, lock-ordering discipline,
// deterministic estimation code, context threading and shutdown
// contracts). It deliberately mirrors the shape of
// golang.org/x/tools/go/analysis — an Analyzer with a Name, a Doc and a Run
// over a type-checked Pass — without importing anything outside the
// standard library, so the module keeps its zero-dependency go.mod.
//
// Since PR 8 the framework is interprocedural: packages are analyzed in
// dependency order inside a Session that carries a module-wide call graph
// (callgraph.go) and a fact store (facts.go) through which analyzers export
// per-function summaries that compose across package boundaries.
//
// Analyzers report Diagnostics with file:line positions. A finding can be
// suppressed at the source line (or the line above it) with
//
//	//lint:ignore <analyzer> <reason>
//
// where the reason is mandatory: an unexplained ignore is itself reported,
// as is a directive naming an analyzer that is not in the running suite or
// a directive that suppresses nothing (wrong line, stale). The cmd/sitlint
// command loads every package of the module, runs the project suite (see
// Suite) and exits non-zero when any diagnostic survives suppression.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static check. Run inspects a single type-checked package
// through the Pass and reports findings via Pass.Reportf; it must not retain
// the Pass after returning.
type Analyzer interface {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //lint:ignore directives.
	Name() string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc() string
	// Run analyzes one package.
	Run(pass *Pass)
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Fset  *token.FileSet
	Path  string // import path of the package under analysis
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Session is the surrounding multi-package run: facts exported by
	// already-analyzed packages (dependencies come first), the module-wide
	// call graph so far, and the shared diagnostic sink.
	Session *Session

	analyzer string
}

// Diagnostic is one finding: a position, the analyzer that produced it and a
// human-readable message. Suppressed marks findings covered by a reasoned
// //lint:ignore directive; they are excluded from Run's return value and
// from sitlint's exit code but surface in -json output.
type Diagnostic struct {
	Pos        token.Position
	Analyzer   string
	Message    string
	Suppressed bool
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	if d.Suppressed {
		s += " (suppressed)"
	}
	return s
}

// Reportf records a finding at pos. If an ignore directive for this analyzer
// covers the position's line the finding is recorded as suppressed (and the
// directive is marked used) instead of being dropped.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Session.reportf(p.analyzer, p.Fset.Position(pos), format, args...)
}

// TypeOf is a nil-safe shortcut for Pass.Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf is a nil-safe shortcut for Pass.Info.ObjectOf.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int
	analyzers map[string]bool // nil means malformed (reported separately)
	reason    string
	used      bool // suppressed at least one diagnostic this session
}

// ignoreIndex indexes directives by file so suppression checks are O(1)-ish.
type ignoreIndex map[string][]*ignoreDirective

// covers reports whether a directive for the analyzer sits on the diagnostic
// line or the line directly above it (the conventional "comment above the
// offending statement" placement), marking the covering directive used.
func (ix ignoreIndex) covers(analyzer string, pos token.Position) bool {
	for _, d := range ix[pos.Filename] {
		if d.analyzers == nil || !d.analyzers[analyzer] {
			continue
		}
		if d.line == pos.Line || d.line == pos.Line-1 {
			d.used = true
			return true
		}
	}
	return false
}

const ignorePrefix = "//lint:ignore"

// parseIgnores extracts every //lint:ignore directive of the files. A
// directive names one analyzer (or a comma-separated list) and must carry a
// non-empty reason; malformed directives are returned as diagnostics so they
// fail the lint run instead of silently suppressing nothing.
func parseIgnores(fset *token.FileSet, files []*ast.File) ([]*ignoreDirective, []Diagnostic) {
	var directives []*ignoreDirective
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				pos := fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "sitlint",
						Message:  "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\"",
					})
					continue
				}
				names := make(map[string]bool)
				for _, n := range strings.Split(fields[0], ",") {
					if n != "" {
						names[n] = true
					}
				}
				directives = append(directives, &ignoreDirective{
					file:      pos.Filename,
					line:      pos.Line,
					analyzers: names,
					reason:    strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return directives, malformed
}

// Run executes the analyzers over the single package and returns the
// surviving diagnostics sorted by position, including directive-hygiene
// findings (malformed, unknown analyzer, suppressing nothing). It is the
// single-package convenience wrapper over a Session; interprocedural
// analyzers see only this package's functions.
func Run(pkg *Package, analyzers []Analyzer) []Diagnostic {
	s := NewSession(analyzers)
	s.Analyze(pkg)
	diags, _ := s.Finish()
	return diags
}

// inScope reports whether the package path matches any scope entry. An entry
// matches as an import-path prefix (at a path-segment boundary) or as a
// plain substring, which lets one scope list cover both the real packages
// ("condsel/internal/core") and an analyzer's fixture package
// ("testdata/src/detmaprange").
func inScope(path string, scope []string) bool {
	for _, s := range scope {
		if path == s || strings.HasPrefix(path, s+"/") || strings.Contains(path, s) {
			return true
		}
	}
	return false
}

// moduleWideScope is the scope rule of the whole-program analyzer goleak:
// every module package is analyzed except the fixture packages of *other*
// analyzers, whose deliberate violations would otherwise bleed into
// single-analyzer fixture runs.
func moduleWideScope(path, self string) bool {
	if !strings.Contains(path, "testdata/src/") {
		return true
	}
	return strings.Contains(path, "testdata/src/"+self)
}

// walkWithStack traverses the AST depth-first invoking fn with every node and
// the stack of its ancestors (outermost first, node excluded).
func walkWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		ok := fn(n, stack)
		if ok {
			// Inspect sends a trailing nil only after descending, so the
			// node is pushed exactly when a matching pop will arrive.
			stack = append(stack, n)
		}
		return ok
	})
}
