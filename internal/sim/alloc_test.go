package sim_test

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestNoPerIterationAllocation holds the event loop allocation-free:
// what an extra SOR phase allocates (step closures, per-step scheduler
// state) must not grow with N. One allocation per event, iteration or
// touch would add hundreds per phase between N=64 and N=256; the slack
// of one absorbs map and free-list growth spread over the phases.
func TestNoPerIterationAllocation(t *testing.T) {
	m := machine.Iris()
	// One policy per fetcher: affinity queues, central queue, static
	// assignment and the modified-factoring board.
	for _, name := range []string{"afs", "gss", "static", "mod-factoring"} {
		spec, err := sched.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		perPhase := func(n int) float64 {
			var allocs [2]float64
			for k, phases := range []int{4, 16} {
				prog := kernels.SOR{N: n, Phases: phases}.Program(m)
				allocs[k] = testing.AllocsPerRun(5, func() {
					if _, err := sim.RunOpts(m, 4, spec, prog, sim.Options{Seed: 1}); err != nil {
						t.Fatal(err)
					}
				})
			}
			return (allocs[1] - allocs[0]) / 12
		}
		small, large := perPhase(64), perPhase(256)
		if large > small+1 {
			t.Errorf("%s: %.2f allocations per phase at N=256 vs %.2f at N=64; something allocates per iteration",
				name, large, small)
		}
	}
}
