// Command sitlint runs the project's static-analysis suite
// (internal/analysis) over the module: project-specific invariants — no
// order-dependent map iteration in DP code, lock discipline, deterministic
// estimation code, allocation-free hot paths (hotalloc), recoveries that
// record a fallback reason (ladderguard), context threading (ctxflow) and
// goroutine exit (goleak) — checked with the standard library's go/ast and
// go/types only.
//
// The suite is interprocedural: all target packages are analyzed in one
// session, dependency-first, so function summaries ("facts") exported by one
// package inform the call sites of another.
//
// Usage:
//
//	go run ./cmd/sitlint ./...                       # whole module (testdata skipped)
//	go run ./cmd/sitlint ./internal/core ./cmd/...   # explicit dirs and dir/... subtrees
//	go run ./cmd/sitlint -json ./...                 # machine-readable findings
//	go run ./cmd/sitlint -list                       # describe the suite, in suite order
//
// Diagnostics print as file:line:col: [analyzer] message. A finding is
// suppressed by a same-line or line-above comment
//
//	//lint:ignore <analyzer> <reason>
//
// where the reason is mandatory; directives that are malformed, name an
// unknown analyzer, or suppress nothing are themselves findings. -json
// emits every diagnostic — including suppressed ones, marked — as a JSON
// array of {file, line, col, analyzer, message, suppressed}.
//
// The command exits 0 when the tree is clean, 1 when unsuppressed findings
// remain, and 2 on load/type-check failures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"condsel/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit diagnostics (including suppressed ones) as JSON")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sitlint [-list] [-json] [./... | dir | dir/... ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.Suite() {
			fmt.Printf("%-14s %s\n", a.Name(), a.Doc())
		}
		return
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sitlint:", err)
		os.Exit(2)
	}

	pkgs, err := loadTargets(loader, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "sitlint:", err)
		os.Exit(2)
	}

	session := analysis.NewSession(analysis.Suite())
	session.Analyze(pkgs...)
	findings, suppressed := session.Finish()

	if *asJSON {
		if err := emitJSON(os.Stdout, findings, suppressed); err != nil {
			fmt.Fprintln(os.Stderr, "sitlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range findings {
			fmt.Println(rel(d))
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "sitlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// jsonDiagnostic is the -json wire shape of one diagnostic.
type jsonDiagnostic struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// emitJSON writes the merged diagnostic streams as one JSON array, findings
// first (each stream is already position-sorted).
func emitJSON(w *os.File, findings, suppressed []analysis.Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(findings)+len(suppressed))
	for _, d := range append(append([]analysis.Diagnostic(nil), findings...), suppressed...) {
		out = append(out, jsonDiagnostic{
			File:       relPath(d.Pos.Filename),
			Line:       d.Pos.Line,
			Col:        d.Pos.Column,
			Analyzer:   d.Analyzer,
			Message:    d.Message,
			Suppressed: d.Suppressed,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// loadTargets interprets the argument list: no arguments or "./..." loads
// the whole module (skipping testdata); "dir/..." loads the subtree under
// dir; anything else is a directory to load explicitly, which *does* allow
// testdata fixture packages so the suite can be demonstrated against them.
func loadTargets(loader *analysis.Loader, args []string) ([]*analysis.Package, error) {
	if len(args) == 0 {
		return loader.LoadAll()
	}
	var pkgs []*analysis.Package
	seen := make(map[string]bool)
	add := func(list ...*analysis.Package) {
		for _, p := range list {
			if !seen[p.Path] {
				seen[p.Path] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	for _, arg := range args {
		switch {
		case arg == "./..." || arg == "...":
			all, err := loader.LoadAll()
			if err != nil {
				return nil, err
			}
			add(all...)
		case strings.HasSuffix(arg, "/..."):
			sub, err := loader.LoadUnder(strings.TrimSuffix(arg, "/..."))
			if err != nil {
				return nil, err
			}
			add(sub...)
		default:
			pkg, err := loader.LoadDir(arg)
			if err != nil {
				return nil, err
			}
			add(pkg)
		}
	}
	return pkgs, nil
}

// rel renders a diagnostic with the file path relative to the working
// directory when possible, keeping output stable across checkouts.
func rel(d analysis.Diagnostic) string {
	d.Pos.Filename = relPath(d.Pos.Filename)
	return d.String()
}

// relPath relativizes a file path against the working directory when the
// result stays inside it.
func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	if r, err := filepath.Rel(wd, name); err == nil && !filepath.IsAbs(r) {
		return r
	}
	return name
}
