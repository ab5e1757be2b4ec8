package core

import (
	"runtime"
	"testing"

	"repro/internal/sched"
)

// TestAFSSubmissionAllocsFlat holds a warm engine's AFS submission
// free of per-phase and per-steal allocation: the count must be the
// same at 4 and at 64 phases. Worker 0's block carries all the work and
// worker 1's none, so worker 1 steals every phase; an allocation per
// phase, per fetch or per steal would show.
func TestAFSSubmissionAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	e, err := NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const n = 256
	cfg := Config{Spec: sched.SpecAFS()}
	size := func(int) int { return n }
	body := func(ph, i int) {
		if i < n/2 {
			slowBody(ph, i)
		}
	}
	var steals int64
	run := func(phases int) {
		res, err := e.Execute(cfg, phases, size, body)
		if err != nil {
			t.Fatal(err)
		}
		steals += res.Stats.Steals
	}
	run(4) // warm the cached dispatcher's queues
	var counts [2]float64
	for k, phases := range [2]int{4, 64} {
		counts[k] = testing.AllocsPerRun(5, func() { run(phases) })
	}
	t.Logf("allocations per submission at 4 and 64 phases: %v", counts)
	if counts[0] != counts[1] {
		t.Errorf("allocations per submission at 4 and 64 phases: %v; want equal", counts)
	}
	// With one CPU worker 0 may drain its queue before worker 1 runs.
	if steals == 0 && runtime.GOMAXPROCS(0) > 1 {
		t.Error("no steals: the skewed body never exercised the steal scan")
	}
}
