//go:build race

package engine

// raceEnabled reports that this binary was built with -race: the detector's
// instrumentation allocates, so allocation-count assertions are meaningless
// there.
const raceEnabled = true
