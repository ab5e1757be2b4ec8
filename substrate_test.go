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

// drawAlikeSpecs are the central-queue and static policies whose
// chunk draws are pure functions of (N, P) and, for BEST-STATIC, of
// the iteration costs; grain is CHUNK's fixed chunk size.
func drawAlikeSpecs(grain int) []sched.Spec {
	return []sched.Spec{sched.SpecSS(), sched.SpecChunk(grain), sched.SpecGSS(), sched.SpecFactoring(),
		sched.SpecTrapezoid(), sched.SpecStatic(), sched.SpecBestStatic()}
}

// drawAlikeShape is one loop nest: steps phases over p processors,
// step s running n-70s iterations (at least none).
type drawAlikeShape struct{ n, p, steps int }

func (sh drawAlikeShape) stepN(s int) int { return max(sh.n-70*s, 0) }

// drawAlikeShapes is TestCentralAndStaticPoliciesDrawAlike's table and
// the fuzz test's seed corpus.
func drawAlikeShapes() []drawAlikeShape {
	var shapes []drawAlikeShape
	for _, n := range []int{1, 7, 100, 1000} {
		for _, p := range []int{1, 2, 3, 8} {
			shapes = append(shapes, drawAlikeShape{n, p, 1})
		}
	}
	return append(shapes, drawAlikeShape{n: 300, p: 3, steps: 4})
}

// checkDrawAlike runs spec over sh on both substrates — the real
// runtime with a no-op body, and the simulator on an ideal machine —
// and requires the same multiset of chunks per step (with the
// processor, for a static policy) and the same central-queue operation
// count. A static policy must also make no per-processor queue
// operation on either substrate.
func checkDrawAlike(t *testing.T, spec sched.Spec, sh drawAlikeShape) {
	t.Helper()
	// Iteration i of step s costs (i+s)%5+1 cycles: uneven enough
	// that BEST-STATIC's blocks differ from STATIC's.
	cost := func(s, i int) float64 { return float64((i+s)%5 + 1) }
	static := spec.Family == sched.FamilyStatic
	realProv := telemetry.NewLog[telemetry.Prov]()
	st, err := core.Run(core.Config{Procs: sh.p, Spec: spec, CostHint: cost,
		Observer: telemetry.ObserveProv(realProv)},
		sh.steps, sh.stepN, func(int, int) {})
	if err != nil {
		t.Fatal(err)
	}
	simProv := telemetry.NewLog[telemetry.Prov]()
	prog := sim.Program{Name: "differential", Steps: sh.steps, Step: func(s int) sim.ParLoop {
		return sim.ParLoop{N: sh.stepN(s), Cost: func(i int) float64 { return cost(s, i) }}
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
	if static {
		var realQ, simQ int64
		for q := range st.LocalOps {
			realQ += st.LocalOps[q] + st.RemoteOps[q]
		}
		for q := range m.LocalOps {
			simQ += int64(m.LocalOps[q] + m.RemoteOps[q])
		}
		if realQ != 0 || simQ != 0 {
			t.Errorf("static policy made queue operations: real %d, simulated %d", realQ, simQ)
		}
	}
}

// TestCentralAndStaticPoliciesDrawAlike runs each central-queue and
// static policy on both substrates over a table of shapes
// (checkDrawAlike). These policies' chunk sequences are pure functions
// of the loop shape, so any difference is a divergence of the two
// engines' use of the shared scheduling core. AFS is left out: which
// queue a steal hits depends on timing, so its chunks differ between
// runs (CheckAFS covers its ownership).
func TestCentralAndStaticPoliciesDrawAlike(t *testing.T) {
	for _, spec := range drawAlikeSpecs(8) {
		for _, sh := range drawAlikeShapes() {
			t.Run(fmt.Sprintf("%s/n%d/p%d/steps%d", spec.Name, sh.n, sh.p, sh.steps), func(t *testing.T) {
				checkDrawAlike(t, spec, sh)
			})
		}
	}
}

// FuzzCentralAndStaticPoliciesDrawAlike is
// TestCentralAndStaticPoliciesDrawAlike over fuzzed policy, CHUNK
// grain and shape, seeded with the test's table. Shapes stay within
// P ≤ 8, N ≤ 4096 and 4 steps, so one input starts at most eight
// workers; each bound maps its in-range values to themselves.
func FuzzCentralAndStaticPoliciesDrawAlike(f *testing.F) {
	for i := range drawAlikeSpecs(8) {
		for _, sh := range drawAlikeShapes() {
			f.Add(uint8(i), uint8(8), uint16(sh.n), uint8(sh.p), uint8(sh.steps))
		}
	}
	f.Fuzz(func(t *testing.T, policy, grain uint8, n uint16, p, steps uint8) {
		specs := drawAlikeSpecs(int(grain-1)%64 + 1)
		checkDrawAlike(t, specs[int(policy)%len(specs)],
			drawAlikeShape{n: int(n) % 4097, p: int(p-1)%8 + 1, steps: int(steps-1)%4 + 1})
	})
}
