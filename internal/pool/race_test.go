//go:build race

package pool

// raceEnabled reports a -race build, whose instrumentation allocates
// on its own.
const raceEnabled = true
