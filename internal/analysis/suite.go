package analysis

import "sort"

// Suite returns the project's analyzer suite in its default configuration —
// the set cmd/sitlint runs. Registration is sorted by analyzer name, so the
// suite order (and with it `sitlint -list`, diagnostics grouping and fixture
// coverage checks) is deterministic regardless of how entries are added. A
// new analyzer is a struct with Name/Doc/Run plus a fixture package under
// testdata/src/<name>; append it anywhere here and the sort places it.
func Suite() []Analyzer {
	analyzers := []Analyzer{
		NewCtxFlow(),
		NewDetMapRange(),
		NewGoLeak(),
		NewHotAlloc(),
		NewLadderGuard(),
		NewLockOrder(),
		NewNonDet(),
		NewUseRelease(),
	}
	sort.Slice(analyzers, func(i, j int) bool { return analyzers[i].Name() < analyzers[j].Name() })
	return analyzers
}
