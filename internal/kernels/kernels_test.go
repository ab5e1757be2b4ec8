package kernels

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestFootprintIDs(t *testing.T) {
	ids := map[uint64]bool{}
	for _, arr := range []uint8{arrA, arrB, arrC} {
		for _, row := range []int{0, 1, 1000, 1 << 20} {
			id := fp(arr, row)
			if ids[id] {
				t.Fatalf("collision: array %d row %d", arr, row)
			}
			ids[id] = true
		}
	}
}

// ---- SOR ----

func TestSORProgramShape(t *testing.T) {
	m := machine.Iris()
	prog := SOR{N: 64, Phases: 3}.Program(m)
	if prog.Steps != 3 {
		t.Errorf("Steps = %d", prog.Steps)
	}
	loop := prog.Step(0)
	if loop.N != 64 {
		t.Errorf("N = %d", loop.N)
	}
	// Interior iteration touches rows i-1, i+1 (reads) and i (write).
	var touches []sim.Touch
	loop.Touches(5, func(tc sim.Touch) { touches = append(touches, tc) })
	if len(touches) != 3 {
		t.Fatalf("interior row touches %d footprints", len(touches))
	}
	if !touches[2].Write || touches[0].Write || touches[1].Write {
		t.Error("write flags wrong")
	}
	// Boundary rows touch fewer.
	touches = touches[:0]
	loop.Touches(0, func(tc sim.Touch) { touches = append(touches, tc) })
	if len(touches) != 2 {
		t.Errorf("boundary row touches %d footprints", len(touches))
	}
	// Uniform cost including a division term.
	if loop.Cost(0) != loop.Cost(63) || loop.Cost(0) <= 0 {
		t.Error("SOR cost not uniform/positive")
	}
}

func TestSORSerialConverges(t *testing.T) {
	g := NewSORGrid(16)
	g.RunSerial(200)
	// With all boundaries at 1, the interior relaxes toward 1.
	if v := g.Value(8, 8); math.Abs(v-1) > 0.05 {
		t.Errorf("centre value %v after 200 sweeps, want ≈1", v)
	}
}

func TestSORParallelMatchesSerial(t *testing.T) {
	const n, phases = 64, 10
	ref := NewSORGrid(n)
	ref.RunSerial(phases)
	// The grid swap is a between-phases side effect, so each phase is
	// one ParallelFor (the examples use the same pattern).
	for _, spec := range []sched.Spec{sched.SpecAFS(), sched.SpecGSS(), sched.SpecFactoring(), sched.SpecSS(), sched.SpecTrapezoid(), sched.SpecModFactoring(), sched.SpecStatic()} {
		g := NewSORGrid(n)
		for ph := 0; ph < phases; ph++ {
			_, err := core.ParallelFor(core.Config{Procs: 8, Spec: spec}, n,
				func(j int) { g.UpdateRow(j) })
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			g.Swap()
		}
		if g.Checksum() != ref.Checksum() {
			t.Errorf("%s: checksum %v != serial %v", spec.Name, g.Checksum(), ref.Checksum())
		}
	}
}

// ---- Gauss ----

func TestGaussProgramShape(t *testing.T) {
	m := machine.Iris()
	prog := Gauss{N: 32}.Program(m)
	if prog.Steps != 31 {
		t.Errorf("Steps = %d, want N-1", prog.Steps)
	}
	s0 := prog.Step(0)
	if s0.N != 31 {
		t.Errorf("phase 0 N = %d, want 31", s0.N)
	}
	sLast := prog.Step(30)
	if sLast.N != 1 {
		t.Errorf("last phase N = %d, want 1", sLast.N)
	}
	// Iteration identity maps to the global row.
	if s0.GlobalID(0) != 1 || sLast.GlobalID(0) != 31 {
		t.Error("Ident mapping wrong")
	}
	// Each iteration reads the pivot row and writes its own row.
	var touches []sim.Touch
	s0.Touches(3, func(tc sim.Touch) { touches = append(touches, tc) })
	if len(touches) != 2 || touches[0].Write || !touches[1].Write {
		t.Errorf("gauss touches wrong: %+v", touches)
	}
	// Costs shrink in later phases.
	if !(prog.Step(0).Cost(0) > prog.Step(20).Cost(0)) {
		t.Error("per-iteration cost should shrink across phases")
	}
}

func TestGaussSolvesSystem(t *testing.T) {
	g := NewGaussMatrix(32)
	g.RunSerial()
	x := g.BackSubstitute()
	// The system was constructed with b = row sums, so x ≈ all ones.
	for i, v := range x {
		if math.Abs(v-1) > 1e-8 {
			t.Fatalf("x[%d] = %v, want 1", i, v)
		}
	}
}

func TestGaussParallelMatchesSerial(t *testing.T) {
	const n = 48
	ref := NewGaussMatrix(n)
	ref.RunSerial()
	for _, spec := range sched.AllSpecs() {
		g := NewGaussMatrix(n)
		_, err := core.Run(core.Config{Procs: 8, Spec: spec}, n-1,
			g.PhaseIterations,
			func(ph, i int) { g.EliminateRow(ph, i) })
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if g.Checksum() != ref.Checksum() {
			t.Errorf("%s: checksum %v != serial %v", spec.Name, g.Checksum(), ref.Checksum())
		}
	}
}

// ---- Transitive closure ----

func TestTCSerialClosure(t *testing.T) {
	// A path graph 0→1→2→3: the closure must connect 0 to 3.
	g := workload.NewGraph(4)
	g.Adj[0][1], g.Adj[1][2], g.Adj[2][3] = true, true, true
	tc := NewTCGraph(g)
	tc.RunSerial()
	if !tc.G.Adj[0][3] || !tc.G.Adj[0][2] || !tc.G.Adj[1][3] {
		t.Errorf("closure incomplete: %v", tc.G.Adj)
	}
	if tc.G.Adj[3][0] {
		t.Error("closure added a reverse edge")
	}
}

func TestTCParallelMatchesSerial(t *testing.T) {
	for _, g := range []*workload.Graph{
		workload.RandomGraph(96, 0.06, 7),
		workload.CliqueGraph(96, 48),
	} {
		testTCParallelMatchesSerial(t, g)
	}
}

func testTCParallelMatchesSerial(t *testing.T, g *workload.Graph) {
	ref := NewTCGraph(g)
	ref.RunSerial()
	for _, spec := range []sched.Spec{sched.SpecAFS(), sched.SpecFactoring(), sched.SpecSS(), sched.SpecStatic(), sched.SpecModFactoring(), sched.SpecAFSLE()} {
		tc := NewTCGraph(g)
		for ph := 0; ph < g.N; ph++ {
			tc.BeginPhase(ph)
			_, err := core.ParallelFor(core.Config{Procs: 8, Spec: spec}, g.N,
				func(j int) { tc.UpdateRow(ph, j) })
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
		}
		if !tc.G.Equal(ref.G) {
			t.Errorf("%s: closure differs from serial", spec.Name)
		}
	}
}

func TestTCModelBranchesMatchExecution(t *testing.T) {
	// The model's precomputed branch bits must equal what a serial run
	// of the real kernel observes phase by phase. The sizes straddle
	// the 64-node words of the model's bitset rows.
	m := machine.Iris()
	for _, n := range []int{1, 63, 64, 65, 130, 200} {
		for _, g := range []*workload.Graph{
			workload.CliqueGraph(n, n/2+1),
			workload.RandomGraph(n, 0.03, int64(n)),
		} {
			before := g.Clone()
			TClosure{Input: g}.Program(m)
			if !g.Equal(before) {
				t.Fatalf("n=%d: Program modified its Input", n)
			}
			table, got := TClosure{Input: g}.branches()
			if got != n {
				t.Fatalf("n=%d: branches reports %d nodes", n, got)
			}
			ref := NewTCGraph(g)
			for ph := 0; ph < n; ph++ {
				ref.BeginPhase(ph)
				for j := 0; j < n; j++ {
					if ref.col[j] != bitAt(table.row(ph), j) {
						t.Fatalf("n=%d edges=%d phase %d row %d: model %v, real %v",
							n, g.Edges(), ph, j, bitAt(table.row(ph), j), ref.col[j])
					}
				}
				for j := 0; j < n; j++ {
					ref.UpdateRow(ph, j)
				}
			}
		}
	}
}

// TestTCModelBuildAllocations pins the model build's allocations to a
// constant: the working bitset and the branch-table bitset are one
// allocation each whatever N is, so one allocation per row or per
// phase would make n=256 allocate more than n=64.
func TestTCModelBuildAllocations(t *testing.T) {
	m := machine.Iris()
	build := func(n int) float64 {
		g := workload.CliqueGraph(n, n/2)
		return testing.AllocsPerRun(5, func() { TClosure{Input: g}.Program(m) })
	}
	small, large := build(64), build(256)
	if small != large || small > 8 {
		t.Errorf("model build allocates %v at n=64 and %v at n=256; want the same small constant", small, large)
	}
}

func TestTCProgramCosts(t *testing.T) {
	m := machine.Iris()
	g := workload.CliqueGraph(32, 16)
	prog := TClosure{Input: g}.Program(m)
	if prog.Steps != 32 {
		t.Errorf("Steps = %d", prog.Steps)
	}
	loop := prog.Step(0)
	// Clique rows (branch taken) are O(N); isolated rows are O(1).
	heavy, light := loop.Cost(1), loop.Cost(20)
	if heavy < 10*light {
		t.Errorf("heavy %v vs light %v: imbalance not modelled", heavy, light)
	}
}

// ---- Adjoint convolution ----

func TestAdjointSerialVsParallel(t *testing.T) {
	for _, rev := range []bool{false, true} {
		ref := NewAdjointData(12, rev)
		ref.RunSerial()
		for _, spec := range []sched.Spec{sched.SpecAFS(), sched.SpecGSS(), sched.SpecTrapezoid()} {
			d := NewAdjointData(12, rev)
			_, err := core.ParallelFor(core.Config{Procs: 8, Spec: spec}, d.Iterations(), d.Body)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			if d.Checksum() != ref.Checksum() {
				t.Errorf("%s rev=%v: checksum mismatch", spec.Name, rev)
			}
		}
	}
}

func TestAdjointCostShape(t *testing.T) {
	m := machine.Iris()
	fwd := Adjoint{N: 10}.Program(m).Step(0)
	if fwd.N != 100 {
		t.Errorf("N = %d", fwd.N)
	}
	if !(fwd.Cost(0) > fwd.Cost(50) && fwd.Cost(50) > fwd.Cost(99)) {
		t.Error("forward costs must decrease with index")
	}
	rev := Adjoint{N: 10, Reverse: true}.Program(m).Step(0)
	if !(rev.Cost(0) < rev.Cost(99)) {
		t.Error("reverse costs must increase with index")
	}
	// Total work identical either way.
	sum := func(l sim.ParLoop) float64 {
		s := 0.0
		for i := 0; i < l.N; i++ {
			s += l.Cost(i)
		}
		return s
	}
	if math.Abs(sum(fwd)-sum(rev)) > 1e-6 {
		t.Error("reversal changed total work")
	}
	if fwd.Touches != nil {
		t.Error("adjoint has no affinity; Touches must be nil")
	}
}

// ---- L4 ----

func TestL4ProgramStructure(t *testing.T) {
	m := machine.Iris()
	prog := L4{Outer: 2, Seed: 9}.Program(m)
	if prog.Steps != 6 {
		t.Errorf("Steps = %d, want 2 outer × 3 loops", prog.Steps)
	}
	wantN := []int{1000, 500, 80, 1000, 500, 80}
	for s := 0; s < prog.Steps; s++ {
		if got := prog.Step(s).N; got != wantN[s] {
			t.Errorf("step %d N = %d, want %d", s, got, wantN[s])
		}
	}
	// Branch probabilities ≈ 0.5: loop A's average cost sits between
	// base and base+cond.
	loop := prog.Step(0)
	total := 0.0
	for i := 0; i < loop.N; i++ {
		total += loop.Cost(i)
	}
	unit := 20.0
	avg := total / float64(loop.N) / unit
	if avg < 20 || avg > 50 {
		t.Errorf("loop A mean cost %v units, want ≈35 (10 + 0.5·50)", avg)
	}
}

func TestL4Deterministic(t *testing.T) {
	m := machine.Iris()
	a := L4{Outer: 3, Seed: 5}.Program(m)
	b := L4{Outer: 3, Seed: 5}.Program(m)
	if a.SerialCycles() != b.SerialCycles() {
		t.Error("same seed produced different workloads")
	}
	c := L4{Outer: 3, Seed: 6}.Program(m)
	if a.SerialCycles() == c.SerialCycles() {
		t.Error("different seeds produced identical workloads (suspicious)")
	}
}

func TestL4RealRuns(t *testing.T) {
	r := NewL4Real(2, 1, 5)
	if r.Loops() != 6 {
		t.Errorf("Loops = %d", r.Loops())
	}
	var count int64
	for s := 0; s < r.Loops(); s++ {
		n := r.LoopN(s)
		_, err := core.ParallelFor(core.Config{Procs: 4, Spec: sched.SpecAFS()}, n,
			func(i int) { r.Body(s, i) })
		if err != nil {
			t.Fatal(err)
		}
		count += int64(n)
	}
	if count != 2*(1000+500+80) {
		t.Errorf("iterations = %d", count)
	}
}

func TestSpinBurnsWork(t *testing.T) {
	Spin(0)
	Spin(1000) // must not panic or store to spinSink
	if spinSink != 0 {
		t.Error("spinSink was written; Spin is no longer race-free")
	}
}

// ---- cross-checks between model and simulator ----

// TestKernelsRunInSimulator: every kernel's model form executes end to
// end under AFS on every machine (small sizes).
func TestKernelsRunInSimulator(t *testing.T) {
	g := workload.RandomGraph(24, 0.1, 3)
	progs := func(m *machine.Machine) []sim.Program {
		return []sim.Program{
			SOR{N: 24, Phases: 2}.Program(m),
			Gauss{N: 16}.Program(m),
			TClosure{Input: g}.Program(m),
			Adjoint{N: 8}.Program(m),
			Adjoint{N: 8, Reverse: true}.Program(m),
			L4{Outer: 1, Seed: 2}.Program(m),
		}
	}
	for _, m := range machine.Presets() {
		for _, prog := range progs(m) {
			res, err := sim.Run(m, 4, sched.SpecAFS(), prog)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name, prog.Name, err)
			}
			if res.Cycles <= 0 {
				t.Errorf("%s/%s: zero completion time", m.Name, prog.Name)
			}
		}
	}
}

func TestTouchesOfHelper(t *testing.T) {
	ts := []sim.Touch{{ID: 1, Bytes: 8}, {ID: 2, Bytes: 16, Write: true}}
	var got []sim.Touch
	touchesOf(ts)(func(tc sim.Touch) { got = append(got, tc) })
	if len(got) != 2 || got[1] != ts[1] {
		t.Errorf("touchesOf visited %+v", got)
	}
}
