//go:build race

package sim_test

// raceEnabled reports a -race build, under which sync.Pool drops a
// random quarter of the engines put back, by design.
const raceEnabled = true
