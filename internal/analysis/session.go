package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Session is one multi-package analysis run. Packages are analyzed in
// dependency order (imports first), so an analyzer processing a package can
// import facts its dependencies exported — the mechanism that makes the
// suite interprocedural across package boundaries. The session also owns
// the merged //lint:ignore index, the growing module call graph, and the
// diagnostic sinks (surviving and suppressed findings).
type Session struct {
	analyzers []Analyzer
	known     map[string]bool // analyzer names addressable by directives

	facts      *Facts
	graph      *CallGraph
	ignores    ignoreIndex
	directives []*ignoreDirective
	diags      []Diagnostic
	suppressed []Diagnostic
	analyzed   map[string]bool // package paths already analyzed
}

// NewSession returns an empty session running the given analyzers.
func NewSession(analyzers []Analyzer) *Session {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name()] = true
	}
	return &Session{
		analyzers: analyzers,
		known:     known,
		facts:     NewFacts(),
		graph:     NewCallGraph(),
		ignores:   make(ignoreIndex),
		analyzed:  make(map[string]bool),
	}
}

// Facts returns the session's fact store.
func (s *Session) Facts() *Facts { return s.facts }

// Graph returns the module call graph built so far (the analyzed packages
// and, transitively, everything they call into).
func (s *Session) Graph() *CallGraph { return s.graph }

// Analyze runs the suite over the packages, dependency-first. It may be
// called several times; a package already analyzed in this session is
// skipped, so overlapping target lists stay idempotent.
func (s *Session) Analyze(pkgs ...*Package) {
	for _, pkg := range topoSort(pkgs) {
		if s.analyzed[pkg.Path] {
			continue
		}
		s.analyzed[pkg.Path] = true
		s.analyzePackage(pkg)
	}
}

func (s *Session) analyzePackage(pkg *Package) {
	directives, malformed := parseIgnores(pkg.Fset, pkg.Files)
	s.diags = append(s.diags, malformed...)
	s.directives = append(s.directives, directives...)
	for _, d := range directives {
		s.ignores[d.file] = append(s.ignores[d.file], d)
	}
	s.graph.AddPackage(pkg)
	for _, a := range s.analyzers {
		pass := &Pass{
			Fset:     pkg.Fset,
			Path:     pkg.Path,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Session:  s,
			analyzer: a.Name(),
		}
		a.Run(pass)
	}
}

// reportf is the session's diagnostic sink: suppression directives route a
// finding into the suppressed list instead of dropping it.
func (s *Session) reportf(analyzer string, pos token.Position, format string, args ...any) {
	d := Diagnostic{Pos: pos, Analyzer: analyzer, Message: fmt.Sprintf(format, args...)}
	if s.ignores.covers(analyzer, pos) {
		d.Suppressed = true
		s.suppressed = append(s.suppressed, d)
		return
	}
	s.diags = append(s.diags, d)
}

// Finish audits the ignore directives and returns the surviving and
// suppressed diagnostics, each sorted by position. Call it exactly once,
// after the last Analyze.
func (s *Session) Finish() (findings, suppressed []Diagnostic) {
	s.auditDirectives()
	sortDiagnostics(s.diags)
	sortDiagnostics(s.suppressed)
	return s.diags, s.suppressed
}

// auditDirectives reports directive-hygiene violations: a directive naming
// an analyzer that is not in the running suite would silently suppress
// nothing forever, and a well-formed directive that suppressed nothing is
// on the wrong line or stale — both must surface rather than be honored.
func (s *Session) auditDirectives() {
	for _, d := range s.directives {
		names := make([]string, 0, len(d.analyzers))
		for n := range d.analyzers {
			names = append(names, n)
		}
		sort.Strings(names)
		pos := token.Position{Filename: d.file, Line: d.line, Column: 1}
		known := true
		for _, n := range names {
			if !s.known[n] {
				known = false
				s.diags = append(s.diags, Diagnostic{
					Pos:      pos,
					Analyzer: "sitlint",
					Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q (known: %s)", n, strings.Join(s.knownNames(), ", ")),
				})
			}
		}
		if known && !d.used {
			s.diags = append(s.diags, Diagnostic{
				Pos:      pos,
				Analyzer: "sitlint",
				Message: fmt.Sprintf("//lint:ignore %s suppresses nothing (wrong line or stale directive)",
					strings.Join(names, ",")),
			})
		}
	}
}

func (s *Session) knownNames() []string {
	names := make([]string, 0, len(s.known))
	for n := range s.known {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sortDiagnostics orders diagnostics by file, line, column, analyzer.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// topoSort orders packages dependency-first (imports before importers) with
// a deterministic import-path tie-break, so facts exported by a dependency
// are always available when its importers are analyzed.
func topoSort(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		if _, dup := byPath[p.Path]; !dup {
			byPath[p.Path] = p
			paths = append(paths, p.Path)
		}
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(pkgs))
	state := make(map[string]int, len(pkgs)) // 0 unvisited, 1 visiting, 2 done
	var visit func(path string)
	visit = func(path string) {
		pkg, ok := byPath[path]
		if !ok || state[path] != 0 {
			return
		}
		state[path] = 1
		imports := pkg.Types.Imports()
		deps := make([]string, 0, len(imports))
		for _, imp := range imports {
			deps = append(deps, imp.Path())
		}
		sort.Strings(deps)
		for _, dep := range deps {
			visit(dep)
		}
		state[path] = 2
		out = append(out, pkg)
	}
	for _, p := range paths {
		visit(p)
	}
	return out
}
