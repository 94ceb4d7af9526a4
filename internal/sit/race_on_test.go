//go:build race

package sit

// raceEnabled reports that this binary was built with -race: the detector's
// instrumentation allocates, so allocation-count assertions are meaningless
// there.
const raceEnabled = true
