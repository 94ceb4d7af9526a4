package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// testFixture verifies one analyzer against its annotated fixture package
// under testdata/src/<name>.
func testFixture(t *testing.T, name string, analyzers []Analyzer) {
	t.Helper()
	problems, err := VerifyFixture(filepath.Join("testdata", "src", name), analyzers)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	for _, p := range problems {
		t.Errorf("%s", p)
	}
}

func TestDetMapRangeFixture(t *testing.T) {
	t.Parallel()
	testFixture(t, "detmaprange", []Analyzer{NewDetMapRange()})
}

func TestLockOrderFixture(t *testing.T) {
	t.Parallel()
	testFixture(t, "lockorder", []Analyzer{NewLockOrder()})
}

func TestNonDetFixture(t *testing.T) {
	t.Parallel()
	testFixture(t, "nondet", []Analyzer{NewNonDet()})
}

func TestLadderGuardFixture(t *testing.T) {
	t.Parallel()
	testFixture(t, "ladderguard", []Analyzer{NewLadderGuard()})
}

func TestHotAllocFixture(t *testing.T) {
	t.Parallel()
	testFixture(t, "hotalloc", []Analyzer{NewHotAlloc()})
}

func TestCtxFlowFixture(t *testing.T) {
	t.Parallel()
	testFixture(t, "ctxflow", []Analyzer{NewCtxFlow()})
}

// TestCtxFlowMainFixture: the package-main fixture — func main may mint the
// process root, everything else in the binary is held to the threading rule.
func TestCtxFlowMainFixture(t *testing.T) {
	t.Parallel()
	testFixture(t, "ctxflowmain", []Analyzer{NewCtxFlow()})
}

func TestGoLeakFixture(t *testing.T) {
	t.Parallel()
	testFixture(t, "goleak", []Analyzer{NewGoLeak()})
}

// TestSuiteOnFixture: the full suite (not just the single analyzer) produces
// findings on a fixture package — the property the CLI's non-zero exit for
// fixture dirs rests on.
func TestSuiteOnFixture(t *testing.T) {
	t.Parallel()
	dir := filepath.Join("testdata", "src", "nondet")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkg, Suite())
	if len(diags) == 0 {
		t.Fatal("full suite produced no findings on the nondet fixture")
	}
	for _, d := range diags {
		if d.Pos.Filename == "" || d.Pos.Line == 0 {
			t.Errorf("diagnostic without file:line position: %+v", d)
		}
		if d.Analyzer != "nondet" {
			t.Errorf("unexpected analyzer %q fired on the nondet fixture: %s", d.Analyzer, d)
		}
	}
}

// TestLoaderModulePackage: the loader resolves module-internal imports and
// the standard library (via the source importer) for a real package.
func TestLoaderModulePackage(t *testing.T) {
	t.Parallel()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load("condsel/internal/selcache")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types == nil || pkg.Types.Name() != "selcache" {
		t.Fatalf("loaded package = %v, want selcache", pkg.Types)
	}
	if len(pkg.Files) == 0 {
		t.Fatal("no files loaded")
	}
	// A second Load returns the cached package.
	again, err := loader.Load("condsel/internal/selcache")
	if err != nil {
		t.Fatal(err)
	}
	if again != pkg {
		t.Fatal("Load is not cached")
	}
}

// TestBrokenIgnoresReported: each way a //lint:ignore directive can go
// wrong — no reason, unknown analyzer name, wrong line (suppressing
// nothing) — is reported as a "sitlint" finding, never silently honored.
func TestBrokenIgnoresReported(t *testing.T) {
	t.Parallel()
	dir := filepath.Join("testdata", "src", "badignore")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkg, Suite())
	cases := []struct {
		label, substr string
	}{
		{"missing reason", "malformed //lint:ignore"},
		{"unknown analyzer", `unknown analyzer "nosuchanalyzer"`},
		{"wrong line", "//lint:ignore nondet suppresses nothing"},
	}
	for _, c := range cases {
		found := false
		for _, d := range diags {
			if d.Analyzer == "sitlint" && strings.Contains(d.Message, c.substr) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s directive not reported (want a sitlint finding containing %q); got %v",
				c.label, c.substr, diags)
		}
	}
	// Hygiene findings surface the problem; they must not leak fixture
	// diagnostics from real analyzers past suppression unexpectedly.
	for _, d := range diags {
		if d.Analyzer != "sitlint" {
			t.Errorf("unexpected non-hygiene finding in badignore fixture: %v", d)
		}
	}
}

// TestSuiteNamesUnique: ignore directives address analyzers by name, so
// names must be distinct and non-empty.
func TestSuiteNamesUnique(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	for _, a := range Suite() {
		name := a.Name()
		if name == "" || a.Doc() == "" {
			t.Fatalf("analyzer %T has empty name or doc", a)
		}
		if seen[name] {
			t.Fatalf("duplicate analyzer name %q", name)
		}
		seen[name] = true
	}
}
