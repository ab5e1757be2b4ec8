package sim_test

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestNoPerIterationAllocation holds a warm run's steady state
// allocation-free. The Program's Step returns one prebuilt ParLoop, so
// everything RunOpts allocates is per run (the Metrics slices, a
// central policy's Sizer): the count must be exactly the same at 4 and
// 16 phases and at N=64 and N=256, for every fetcher family. One
// allocation per step, event, iteration or touch would show.
func TestNoPerIterationAllocation(t *testing.T) {
	m := machine.Iris()
	run := runPooled
	if raceEnabled {
		// The pool drops engines at random under -race, so measure the
		// same steady state on one held engine.
		run = sim.HeldEngine()
	}
	// One policy per fetcher: affinity queues, central queue, static
	// assignment and the modified-factoring board.
	for _, name := range []string{"afs", "gss", "static", "mod-factoring"} {
		spec, err := sched.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var counts [4]float64
		for k, shape := range [4][2]int{{64, 4}, {64, 16}, {256, 4}, {256, 16}} {
			loop := kernels.SOR{N: shape[0], Phases: 1}.Program(m).Step(0)
			prog := sim.Program{Name: "SOR", Steps: shape[1], Step: func(int) sim.ParLoop { return loop }}
			counts[k] = testing.AllocsPerRun(5, func() {
				run(m, 4, spec, prog, sim.Options{Seed: 1})
			})
		}
		for k := 1; k < len(counts); k++ {
			if counts[k] != counts[0] {
				t.Errorf("%s: allocations per run at (N, phases) = (64,4) (64,16) (256,4) (256,16): %v; want all equal",
					name, counts)
				break
			}
		}
	}
}
