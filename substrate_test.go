package repro_test

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// drawnChunk is one chunk as a substrate drew it: its step and range,
// and for a static policy the processor it was assigned to (-1 when
// the fetching processor depends on timing).
type drawnChunk struct{ step, proc, lo, hi int }

func drawnChunks(recs []telemetry.Prov, static bool) []drawnChunk {
	out := make([]drawnChunk, 0, len(recs))
	for _, p := range recs {
		c := drawnChunk{step: p.Step, proc: -1, lo: p.Lo, hi: p.Hi}
		if static {
			c.proc = p.Proc
		}
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b drawnChunk) int {
		return cmp.Or(cmp.Compare(a.step, b.step), cmp.Compare(a.proc, b.proc),
			cmp.Compare(a.lo, b.lo), cmp.Compare(a.hi, b.hi))
	})
	return out
}

// TestCentralAndStaticPoliciesDrawAlike runs each central-queue and
// static policy on both substrates — the real runtime with a no-op
// body, and the simulator on an ideal machine — and requires the same
// multiset of chunks per step and the same central-queue operation
// count. These policies' chunk sequences are pure functions of (N, P)
// and, for BEST-STATIC, of the iteration costs, so any difference is a
// divergence of the two engines' use of the shared scheduling core.
// AFS is left out: which queue a steal hits depends on timing, so its
// chunks differ between runs (CheckAFS covers its ownership).
func TestCentralAndStaticPoliciesDrawAlike(t *testing.T) {
	specs := []sched.Spec{sched.SpecSS(), sched.SpecChunk(8), sched.SpecGSS(), sched.SpecFactoring(),
		sched.SpecTrapezoid(), sched.SpecStatic(), sched.SpecBestStatic()}
	// Iteration i of step s costs (i+s)%5+1 cycles: uneven enough
	// that BEST-STATIC's blocks differ from STATIC's.
	cost := func(s, i int) float64 { return float64((i+s)%5 + 1) }
	type shape struct{ n, p, steps int }
	var shapes []shape
	for _, n := range []int{1, 7, 100, 1000} {
		for _, p := range []int{1, 2, 3, 8} {
			shapes = append(shapes, shape{n, p, 1})
		}
	}
	shapes = append(shapes, shape{n: 300, p: 3, steps: 4}) // step s runs 300-70s iterations
	stepN := func(sh shape, s int) int { return sh.n - 70*s }

	for _, spec := range specs {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s/n%d/p%d/steps%d", spec.Name, sh.n, sh.p, sh.steps), func(t *testing.T) {
				static := spec.Family == sched.FamilyStatic
				realProv := telemetry.NewLog[telemetry.Prov]()
				st, err := core.Run(core.Config{Procs: sh.p, Spec: spec, CostHint: cost,
					Observer: telemetry.ObserveProv(realProv)},
					sh.steps, func(s int) int { return stepN(sh, s) }, func(int, int) {})
				if err != nil {
					t.Fatal(err)
				}
				simProv := telemetry.NewLog[telemetry.Prov]()
				prog := sim.Program{Name: "differential", Steps: sh.steps, Step: func(s int) sim.ParLoop {
					return sim.ParLoop{N: stepN(sh, s), Cost: func(i int) float64 { return cost(s, i) }}
				}}
				m, err := sim.RunOpts(machine.Ideal(sh.p), sh.p, spec, prog,
					sim.Options{Observer: telemetry.ObserveProv(simProv)})
				if err != nil {
					t.Fatal(err)
				}
				got, want := drawnChunks(realProv.Records(), static), drawnChunks(simProv.Records(), static)
				if !slices.Equal(got, want) {
					t.Errorf("real runtime drew %v,\nsimulator drew %v", got, want)
				}
				if st.CentralOps != int64(m.CentralOps) {
					t.Errorf("CentralOps: real %d, simulated %d", st.CentralOps, m.CentralOps)
				}
			})
		}
	}
}
