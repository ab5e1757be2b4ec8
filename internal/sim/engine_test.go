package sim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// constLoop builds a memory-less loop where executions are counted via
// a Touches hook (one Touch per executed iteration).
func countedLoop(n int, cost float64, executed []int) ParLoop {
	return ParLoop{
		N:    n,
		Cost: func(int) float64 { return cost },
		Touches: func(i int, visit func(Touch)) {
			executed[i]++
			visit(Touch{ID: uint64(i), Bytes: 8})
		},
	}
}

func TestRunValidation(t *testing.T) {
	prog := ConstLoop("x", 10, 1)
	if _, err := Run(machine.Ideal(4), 0, sched.SpecGSS(), prog); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := Run(machine.Ideal(4), 65, sched.SpecGSS(), prog); err == nil {
		t.Error("p=65 accepted (directory limit)")
	}
	bad := &machine.Machine{Name: "bad"}
	if _, err := Run(bad, 1, sched.SpecGSS(), prog); err == nil {
		t.Error("invalid machine accepted")
	}
}

// TestSingleProcessorMatchesSerial: on one ideal processor, completion
// time equals the serial compute sum plus scheduling costs only.
func TestSingleProcessorMatchesSerial(t *testing.T) {
	prog := ConstLoop("serial", 100, 7)
	res, err := Run(machine.Ideal(1), 1, sched.SpecStatic(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 700 {
		t.Errorf("cycles = %v, want 700 (static has no queue costs)", res.Cycles)
	}
	if res.SerialComputeCycles != 700 {
		t.Errorf("serial = %v", res.SerialComputeCycles)
	}
}

// TestIdealSpeedup: a balanced loop on P ideal processors takes ~1/P of
// the serial time for every algorithm.
func TestIdealSpeedup(t *testing.T) {
	for _, spec := range sched.AllSpecs() {
		prog := ConstLoop("speedup", 1024, 100)
		res, err := Run(machine.Ideal(8), 8, spec, prog)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		ideal := 1024.0 * 100 / 8
		if res.Cycles < ideal {
			t.Errorf("%s: %v cycles beats the ideal %v", spec.Name, res.Cycles, ideal)
		}
		if res.Cycles > ideal*1.25 {
			t.Errorf("%s: %v cycles, want within 25%% of ideal %v", spec.Name, res.Cycles, ideal)
		}
	}
}

// TestEveryIterationOnceAllMachines runs every algorithm on every
// machine preset and checks exactly-once execution.
func TestEveryIterationOnceAllMachines(t *testing.T) {
	for _, m := range machine.Presets() {
		p := 8
		for _, spec := range sched.AllSpecs() {
			executed := make([]int, 200)
			prog := SingleLoop("once", countedLoop(200, 13, executed))
			if _, err := Run(m, p, spec, prog); err != nil {
				t.Fatalf("%s/%s: %v", m.Name, spec.Name, err)
			}
			for i, c := range executed {
				if c != 1 {
					t.Fatalf("%s/%s: iteration %d executed %d times", m.Name, spec.Name, i, c)
				}
			}
		}
	}
}

// TestMultiStepExecution: phases execute in order with barriers; every
// iteration of every step runs exactly once.
func TestMultiStepExecution(t *testing.T) {
	const steps, n = 5, 64
	executed := make([][]int, steps)
	for s := range executed {
		executed[s] = make([]int, n)
	}
	cur := 0
	prog := Program{
		Name:  "phased",
		Steps: steps,
		Step: func(s int) ParLoop {
			cur = s
			return ParLoop{
				N:    n,
				Cost: func(int) float64 { return 5 },
				Touches: func(i int, visit func(Touch)) {
					executed[cur][i]++
					visit(Touch{ID: uint64(i), Bytes: 64})
				},
			}
		},
	}
	res, err := Run(machine.Iris(), 4, sched.SpecAFS(), prog)
	if err != nil {
		t.Fatal(err)
	}
	for s := range executed {
		for i, c := range executed[s] {
			if c != 1 {
				t.Fatalf("step %d iteration %d executed %d times", s, i, c)
			}
		}
	}
	if res.Steps != steps {
		t.Errorf("Steps = %d", res.Steps)
	}
}

// TestTheorem32FinishTimes verifies the §3 bound: with equal-cost
// iterations and one delayed processor, GSS, FACTORING and AFS(k=P)
// finish the loop with negligible imbalance (all processors within one
// iteration), so completion ≈ ideal redistribution of remaining work.
func TestTheorem32FinishTimes(t *testing.T) {
	const n, p, cost = 1 << 14, 8, 100
	m := machine.Ideal(p)
	delay := 0.125 * n * cost // one processor is late by N/8 iterations' work
	for _, spec := range []sched.Spec{
		sched.SpecGSS(), sched.SpecFactoring(), sched.SpecAFS(),
	} {
		res, err := RunOpts(m, p, spec, ConstLoop("t32", n, cost), Options{
			StartDelay: []float64{delay},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Work remaining when the late processor arrives is spread over
		// P processors: optimal time = delay + (N·cost - 7·delay)/P...
		// a simpler tight bound: total work + delay, divided by P, plus
		// one iteration of slack and queue overhead.
		optimal := (float64(n)*cost + delay) / float64(p)
		if res.Cycles > optimal*1.05+2*cost {
			t.Errorf("%s: %v cycles vs optimal %v — imbalance exceeds Theorem 3.2",
				spec.Name, res.Cycles, optimal)
		}
	}
	// AFS with k=2 has the paper's N(P-k)/(P(P-1)k) imbalance: worse
	// than k=P but bounded.
	res, err := RunOpts(m, p, sched.SpecAFSK(2), ConstLoop("t32", n, cost), Options{
		StartDelay: []float64{delay},
	})
	if err != nil {
		t.Fatal(err)
	}
	optimal := (float64(n)*cost + delay) / float64(p)
	worst := optimal + float64(n)*(float64(p)-2)/(float64(p)*(float64(p)-1)*2)*cost + cost
	if res.Cycles > worst*1.10 {
		t.Errorf("AFS(k=2): %v cycles vs theorem bound %v", res.Cycles, worst)
	}
}

// TestTheorem31SyncBound: AFS sync ops per queue stay within
// O(k·log(N/Pk) + P·log(N/P²)).
func TestTheorem31SyncBound(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{512, 8}, {4096, 16}, {640, 8}, {50000, 32}} {
		res, err := Run(machine.Ideal(tc.p), tc.p, sched.SpecAFS(),
			ConstLoop("t31", tc.n, 50))
		if err != nil {
			t.Fatal(err)
		}
		n, p := float64(tc.n), float64(tc.p)
		bound := p*(math.Log2(n/(p*p))+2) + p*(math.Log2(n/(p*p))+2) // k = P
		for q := 0; q < tc.p; q++ {
			got := float64(res.LocalOps[q] + res.RemoteOps[q])
			if got > bound+4 {
				t.Errorf("n=%d p=%d queue %d: %v ops exceeds Theorem 3.1 bound %v",
					tc.n, tc.p, q, got, bound)
			}
		}
	}
}

// TestAFSStealsOnlyUnderImbalance: a perfectly balanced loop with
// synchronized starts on the ideal machine needs no remote operations.
func TestAFSStealsOnlyUnderImbalance(t *testing.T) {
	res, err := Run(machine.Ideal(8), 8, sched.SpecAFS(), ConstLoop("bal", 1024, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steals != 0 {
		t.Errorf("balanced loop triggered %d steals", res.Steals)
	}
	// A severely imbalanced loop must trigger steals.
	imb := SingleLoop("imb", ParLoop{
		N: 1024,
		Cost: func(i int) float64 {
			if i < 128 {
				return 1000
			}
			return 1
		},
	})
	res, err = Run(machine.Ideal(8), 8, sched.SpecAFS(), imb)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steals == 0 {
		t.Error("imbalanced loop triggered no steals")
	}
	if res.MigratedIters == 0 || res.MigratedIters >= 1024 {
		t.Errorf("migrated %d iterations, want in (0, N)", res.MigratedIters)
	}
}

// TestDeterminism: identical runs produce identical metrics; different
// seeds may differ.
func TestDeterminism(t *testing.T) {
	m := machine.Iris()
	prog := func() Program {
		return SingleLoop("det", ParLoop{
			N:    300,
			Cost: func(i int) float64 { return float64(1 + i%5) },
			Touches: func(i int, visit func(Touch)) {
				visit(Touch{ID: uint64(i % 40), Bytes: 512, Write: i%4 == 0})
			},
		})
	}
	a, _ := RunOpts(m, 8, sched.SpecAFS(), prog(), Options{Seed: 1})
	b, _ := RunOpts(m, 8, sched.SpecAFS(), prog(), Options{Seed: 1})
	if a.Cycles != b.Cycles || a.Misses != b.Misses || a.Steals != b.Steals {
		t.Error("same-seed runs differ")
	}
}

// TestAffinityAcrossPhases: with AFS, phase 2+ of a data-reusing loop
// must hit in cache, while SS keeps missing (the core claim of §2).
func TestAffinityAcrossPhases(t *testing.T) {
	m := machine.Iris()
	mk := func() Program {
		return Program{
			Name:  "reuse",
			Steps: 4,
			Step: func(int) ParLoop {
				return ParLoop{
					N:    64,
					Cost: func(int) float64 { return 1000 },
					Touches: func(i int, visit func(Touch)) {
						visit(Touch{ID: uint64(i), Bytes: 4096, Write: true})
					},
				}
			},
		}
	}
	afs, err := Run(m, 8, sched.SpecAFS(), mk())
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Run(m, 8, sched.SpecSS(), mk())
	if err != nil {
		t.Fatal(err)
	}
	// AFS: 64 cold misses in phase 1, ~none after.
	if afs.Misses > 64+8 {
		t.Errorf("AFS missed %d times, want ~64 cold misses only", afs.Misses)
	}
	if ss.Misses < 2*afs.Misses {
		t.Errorf("SS misses (%d) should dwarf AFS misses (%d)", ss.Misses, afs.Misses)
	}
}

// TestWriteInvalidation: a write by one processor invalidates the
// footprint in other caches.
func TestWriteInvalidation(t *testing.T) {
	m := machine.Iris()
	// Two phases: phase 0, every iteration reads footprint 7 (all procs
	// cache it). Phase 1, iteration 0 writes footprint 7; then phase 2
	// readers must re-miss.
	missesByPhase := make([]int, 3)
	cur := 0
	prog := Program{
		Name:  "inval",
		Steps: 3,
		Step: func(s int) ParLoop {
			cur = s
			return ParLoop{
				N:    8,
				Cost: func(int) float64 { return 10000 },
				Touches: func(i int, visit func(Touch)) {
					write := cur == 1 && i == 0
					if cur == 1 && i != 0 {
						return // only the writer touches in phase 1
					}
					visit(Touch{ID: 7, Bytes: 256, Write: write})
					_ = missesByPhase
				},
			}
		},
	}
	res, err := Run(m, 8, sched.SpecStatic(), prog)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 0: 8 cold misses. Phase 1: writer hits (it cached in phase
	// 0). Phase 2: the writer hits, the 7 others miss again.
	want := 8 + 0 + 7
	if res.Misses != want {
		t.Errorf("misses = %d, want %d (cold + post-invalidation)", res.Misses, want)
	}
}

// TestBusSerialisation: on a bus machine, misses serialise; the
// completion time of a miss-heavy loop exceeds the no-bus equivalent.
func TestBusSerialisation(t *testing.T) {
	mkProg := func() Program {
		return SingleLoop("bus", ParLoop{
			N:    256,
			Cost: func(int) float64 { return 10 },
			Touches: func(i int, visit func(Touch)) {
				visit(Touch{ID: uint64(i), Bytes: 4096})
			},
		})
	}
	withBus := machine.Iris()
	noBus := machine.Iris()
	noBus.BusPerLine = 0
	a, err := Run(withBus, 8, sched.SpecStatic(), mkProg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(noBus, 8, sched.SpecStatic(), mkProg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles <= b.Cycles {
		t.Errorf("bus contention had no cost: %v vs %v", a.Cycles, b.Cycles)
	}
	if a.BusWaitCycles == 0 {
		t.Error("no bus wait recorded")
	}
}

// TestCentralQueueContention: SS on many processors is limited by the
// serialised queue when iterations are short.
func TestCentralQueueContention(t *testing.T) {
	m := machine.Iris() // CentralQueueOp = 300
	prog := ConstLoop("contend", 4096, 50)
	res, err := Run(m, 8, sched.SpecSS(), prog)
	if err != nil {
		t.Fatal(err)
	}
	// Queue-bound lower bound: N ops × service, minus overlap slack.
	if res.Cycles < 4096*m.CentralQueueOp*0.9 {
		t.Errorf("SS completed in %v cycles, faster than the serialised queue allows (%v)",
			res.Cycles, 4096*m.CentralQueueOp)
	}
	if res.CentralOps != 4096 {
		t.Errorf("SS ops = %d, want 4096", res.CentralOps)
	}
}

// TestDelayedStartMonotonic: larger delays never speed up completion.
func TestDelayedStartMonotonic(t *testing.T) {
	m := machine.Iris()
	prev := 0.0
	for _, d := range []float64{0, 1e5, 1e6, 1e7} {
		res, err := RunOpts(m, 4, sched.SpecGSS(), ConstLoop("d", 4096, 100),
			Options{StartDelay: []float64{d}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles < prev {
			t.Errorf("delay %v made the loop faster: %v < %v", d, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

// TestAFSLELearnsImbalance: after a few phases of the same skewed loop,
// AFS-LE's history-based placement reduces steal traffic relative to
// plain AFS.
func TestAFSLELearnsImbalance(t *testing.T) {
	mk := func() Program {
		return Program{
			Name:  "le",
			Steps: 6,
			Step: func(int) ParLoop {
				return ParLoop{
					N: 512,
					Cost: func(i int) float64 {
						if i < 64 {
							return 800
						}
						return 2
					},
				}
			},
		}
	}
	m := machine.Ideal(8)
	afs, err := Run(m, 8, sched.SpecAFS(), mk())
	if err != nil {
		t.Fatal(err)
	}
	le, err := Run(m, 8, sched.SpecAFSLE(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if le.Steals >= afs.Steals {
		t.Errorf("AFS-LE steals (%d) not fewer than AFS (%d)", le.Steals, afs.Steals)
	}
}

// TestZeroStepPrograms: empty programs and zero-iteration steps are
// handled gracefully.
func TestZeroStepPrograms(t *testing.T) {
	empty := Program{Name: "empty", Steps: 0, Step: func(int) ParLoop { return ParLoop{} }}
	res, err := Run(machine.Ideal(4), 4, sched.SpecAFS(), empty)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 0 {
		t.Errorf("empty program took %v cycles", res.Cycles)
	}
	zero := Program{Name: "zero", Steps: 3, Step: func(int) ParLoop {
		return ParLoop{N: 0}
	}}
	if _, err := Run(machine.Ideal(4), 4, sched.SpecAFS(), zero); err != nil {
		t.Fatal(err)
	}
}

// TestMoreProcsThanIterations: P > N must still terminate and execute
// everything exactly once.
func TestMoreProcsThanIterations(t *testing.T) {
	for _, spec := range sched.AllSpecs() {
		executed := make([]int, 3)
		prog := SingleLoop("tiny", countedLoop(3, 10, executed))
		if _, err := Run(machine.Ideal(16), 16, spec, prog); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for i, c := range executed {
			if c != 1 {
				t.Fatalf("%s: iteration %d ran %d times", spec.Name, i, c)
			}
		}
	}
}

// TestMetricsHelpers covers the derived-metric arithmetic.
func TestMetricsHelpers(t *testing.T) {
	m := Metrics{
		Steps:      4,
		CentralOps: 80,
		LocalOps:   []int{8, 8, 16, 0},
		RemoteOps:  []int{0, 4, 0, 4},
		Hits:       90,
		Misses:     10,
	}
	if got := m.CentralOpsPerLoop(); got != 20 {
		t.Errorf("CentralOpsPerLoop = %v", got)
	}
	if got := m.LocalOpsPerQueuePerLoop(); got != 2 {
		t.Errorf("LocalOpsPerQueuePerLoop = %v", got)
	}
	if got := m.RemoteOpsPerQueuePerLoop(); got != 0.5 {
		t.Errorf("RemoteOpsPerQueuePerLoop = %v", got)
	}
	if got := m.TotalSyncOps(); got != 80+32+8 {
		t.Errorf("TotalSyncOps = %v", got)
	}
	if got := m.MissRatio(); got != 0.1 {
		t.Errorf("MissRatio = %v", got)
	}
	var zero Metrics
	if zero.CentralOpsPerLoop() != 0 || zero.MissRatio() != 0 ||
		zero.LocalOpsPerQueuePerLoop() != 0 || zero.RemoteOpsPerQueuePerLoop() != 0 {
		t.Error("zero metrics not safe")
	}
}

func TestSerialCycles(t *testing.T) {
	prog := Program{
		Name:  "sc",
		Steps: 2,
		Step: func(s int) ParLoop {
			return ParLoop{N: 10, Cost: func(i int) float64 { return float64(s + 1) }}
		},
	}
	if got := prog.SerialCycles(); got != 10*1+10*2 {
		t.Errorf("SerialCycles = %v, want 30", got)
	}
}

func TestGlobalID(t *testing.T) {
	l := ParLoop{N: 5}
	if l.GlobalID(3) != 3 {
		t.Error("identity default broken")
	}
	l.Ident = func(i int) int { return i + 100 }
	if l.GlobalID(3) != 103 {
		t.Error("custom ident broken")
	}
}

func TestSplitmix64(t *testing.T) {
	// Fixed values keep jitter stable across refactors (determinism of
	// recorded experiment outputs depends on it).
	a, b := splitmix64(1), splitmix64(2)
	if a == b {
		t.Error("splitmix64 collision on adjacent inputs")
	}
	if splitmix64(1) != a {
		t.Error("splitmix64 not deterministic")
	}
}

// TestEngineTraceRecording: the observed event stream records every
// iteration exactly once with legal steals, and on an imbalanced loop
// AFS steals, moving some iterations but far fewer than all.
func TestEngineTraceRecording(t *testing.T) {
	stream := telemetry.NewLog[telemetry.Event]()
	imb := SingleLoop("imb", ParLoop{
		N: 512,
		Cost: func(i int) float64 {
			if i < 64 {
				return 500
			}
			return 1
		},
	})
	res, err := RunOpts(machine.Ideal(8), 8, sched.SpecAFS(), imb, Options{Observer: telemetry.ObserveEvents(stream, "cycles")})
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.Check(stream.Records()).Err(); err != nil {
		t.Error(err)
	}
	if res.Steals == 0 {
		t.Error("no steals recorded for an imbalanced loop")
	}
	// An iteration migrates at most once, and most stay home.
	if moved := res.MigratedIters; moved == 0 || moved > 256 {
		t.Errorf("migrated %d of 512", moved)
	}
}

// TestVictimPoliciesExecuteAll: randomized steal policies preserve the
// exactly-once property and still balance.
func TestVictimPoliciesExecuteAll(t *testing.T) {
	for _, spec := range []sched.Spec{sched.SpecAFSRandom(), sched.SpecAFSPow2()} {
		executed := make([]int, 300)
		prog := SingleLoop("v", countedLoop(300, 20, executed))
		res, err := Run(machine.Ideal(8), 8, spec, prog)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for i, c := range executed {
			if c != 1 {
				t.Fatalf("%s: iteration %d ran %d times", spec.Name, i, c)
			}
		}
		if res.Cycles <= 0 {
			t.Fatalf("%s: no progress", spec.Name)
		}
	}
}

// TestVictimPolicyBalanceOrdering: on a skewed loop, most-loaded
// stealing should be at least as balanced as single random probing.
func TestVictimPolicyBalanceOrdering(t *testing.T) {
	mk := func() Program {
		return SingleLoop("skew", ParLoop{
			N: 2048,
			Cost: func(i int) float64 {
				if i < 256 {
					return 400
				}
				return 1
			},
		})
	}
	ml, err := Run(machine.Ideal(16), 16, sched.SpecAFS(), mk())
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Run(machine.Ideal(16), 16, sched.SpecAFSRandom(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if ml.Cycles > rnd.Cycles*1.15 {
		t.Errorf("most-loaded (%v) much worse than random probing (%v)", ml.Cycles, rnd.Cycles)
	}
}

// TestConclusionsRobustToSeed: the headline qualitative result (AFS
// beats GSS on a data-reusing phased loop on a bus machine) holds for
// every jitter seed, not just the default — the paper's conclusions
// must not hinge on one lucky arrival order.
func TestConclusionsRobustToSeed(t *testing.T) {
	mk := func() Program {
		return Program{
			Name:  "seedcheck",
			Steps: 5,
			Step: func(int) ParLoop {
				return ParLoop{
					N:    128,
					Cost: func(int) float64 { return 2000 },
					Touches: func(i int, visit func(Touch)) {
						visit(Touch{ID: uint64(i), Bytes: 4096, Write: true})
					},
				}
			},
		}
	}
	m := machine.Iris()
	for seed := uint64(0); seed < 8; seed++ {
		afs, err := RunOpts(m, 8, sched.SpecAFS(), mk(), Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		gss, err := RunOpts(m, 8, sched.SpecGSS(), mk(), Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if gss.Cycles < afs.Cycles*1.1 {
			t.Errorf("seed %d: AFS advantage vanished (AFS %v, GSS %v)",
				seed, afs.Cycles, gss.Cycles)
		}
	}
}

// TestSeedChangesCentralAssignment: different seeds permute which
// processor gets which GSS chunk (the jitter works), while AFS's
// deterministic placement ignores the seed entirely in miss counts.
func TestSeedChangesCentralAssignment(t *testing.T) {
	mk := func() Program {
		return Program{
			Name:  "jitter",
			Steps: 3,
			Step: func(int) ParLoop {
				return ParLoop{
					N:    64,
					Cost: func(int) float64 { return 3000 },
					Touches: func(i int, visit func(Touch)) {
						visit(Touch{ID: uint64(i), Bytes: 2048, Write: true})
					},
				}
			},
		}
	}
	m := machine.Iris()
	a, _ := RunOpts(m, 8, sched.SpecAFS(), mk(), Options{Seed: 1})
	b, _ := RunOpts(m, 8, sched.SpecAFS(), mk(), Options{Seed: 99})
	if a.Misses != b.Misses {
		t.Errorf("AFS misses vary with seed: %d vs %d (placement should be deterministic)",
			a.Misses, b.Misses)
	}
}

// TestActiveProcsReconfiguration: shrinking and growing the processor
// partition between phases keeps execution exactly-once and changes
// throughput accordingly.
func TestActiveProcsReconfiguration(t *testing.T) {
	const steps, n = 6, 240
	executed := make([][]int, steps)
	for s := range executed {
		executed[s] = make([]int, n)
	}
	cur := 0
	mk := func() Program {
		return Program{
			Name:  "reconfig",
			Steps: steps,
			Step: func(s int) ParLoop {
				cur = s
				return ParLoop{
					N:    n,
					Cost: func(int) float64 { return 100 },
					Touches: func(i int, visit func(Touch)) {
						executed[cur][i]++
						visit(Touch{ID: uint64(i), Bytes: 64})
					},
				}
			},
		}
	}
	sched8 := func(s int) int {
		if s < 3 {
			return 8
		}
		return 2
	}
	for _, spec := range []sched.Spec{sched.SpecAFS(), sched.SpecGSS(), sched.SpecStatic(), sched.SpecModFactoring()} {
		for s := range executed {
			for i := range executed[s] {
				executed[s][i] = 0
			}
		}
		res, err := RunOpts(machine.Ideal(8), 8, spec, mk(), Options{ActiveProcs: sched8})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for s := range executed {
			for i, c := range executed[s] {
				if c != 1 {
					t.Fatalf("%s: step %d iteration %d ran %d times", spec.Name, s, i, c)
				}
			}
		}
		// 3 steps at 8 procs (~n/8 each) + 3 at 2 procs (~n/2 each).
		ideal := 3*float64(n)/8*100 + 3*float64(n)/2*100
		if res.Cycles < ideal || res.Cycles > ideal*1.3 {
			t.Errorf("%s: %v cycles, want ≈%v", spec.Name, res.Cycles, ideal)
		}
	}
	// Degenerate ActiveProcs values clamp instead of crashing.
	if _, err := RunOpts(machine.Ideal(4), 4, sched.SpecAFS(), ConstLoop("x", 16, 5),
		Options{ActiveProcs: func(int) int { return -3 }}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunOpts(machine.Ideal(4), 4, sched.SpecAFS(), ConstLoop("x", 16, 5),
		Options{ActiveProcs: func(int) int { return 99 }}); err != nil {
		t.Fatal(err)
	}
}

// TestFlushEveryStepsForcesMisses: periodic cache corruption re-misses
// under AFS where a dedicated run would hit.
func TestFlushEveryStepsForcesMisses(t *testing.T) {
	mk := func() Program {
		return Program{
			Name:  "flush",
			Steps: 4,
			Step: func(int) ParLoop {
				return ParLoop{
					N:    32,
					Cost: func(int) float64 { return 1000 },
					Touches: func(i int, visit func(Touch)) {
						visit(Touch{ID: uint64(i), Bytes: 1024})
					},
				}
			},
		}
	}
	dedicated, err := Run(machine.Iris(), 4, sched.SpecAFS(), mk())
	if err != nil {
		t.Fatal(err)
	}
	shared, err := RunOpts(machine.Iris(), 4, sched.SpecAFS(), mk(), Options{FlushEverySteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Dedicated: 32 cold misses plus a handful from jitter-induced
	// steals. Flushed: every phase re-misses everything.
	if dedicated.Misses < 32 || dedicated.Misses > 32+16 {
		t.Errorf("dedicated misses = %d, want ≈32 cold misses", dedicated.Misses)
	}
	if shared.Misses < 4*32 {
		t.Errorf("flushed misses = %d, want ≥ %d", shared.Misses, 4*32)
	}
	if shared.Misses < 3*dedicated.Misses {
		t.Errorf("flushing should multiply misses: %d vs %d", shared.Misses, dedicated.Misses)
	}
}

// TestRandomProgramsQuick drives the engine with randomly-shaped
// programs (random phase counts, iteration counts, costs, footprints,
// write ratios) under random algorithms, asserting the fundamental
// invariants: every iteration of every step executes exactly once and
// the clock only moves forward.
func TestRandomProgramsQuick(t *testing.T) {
	specs := sched.AllSpecs()
	f := func(steps8, n16 uint16, costSeed, algo8, p8 uint8) bool {
		steps := int(steps8)%4 + 1
		n := int(n16)%300 + 1
		p := int(p8)%8 + 1
		spec := specs[int(algo8)%len(specs)]
		executed := make([][]int, steps)
		for s := range executed {
			executed[s] = make([]int, n)
		}
		cur := 0
		prog := Program{
			Name:  "quick",
			Steps: steps,
			Step: func(s int) ParLoop {
				cur = s
				return ParLoop{
					N: n,
					Cost: func(i int) float64 {
						return float64(1 + (i*int(costSeed)+7)%97)
					},
					Touches: func(i int, visit func(Touch)) {
						executed[cur][i]++
						visit(Touch{
							ID:    uint64(i % 37),
							Bytes: 64 + (i%5)*128,
							Write: (i+int(costSeed))%3 == 0,
						})
					},
				}
			},
		}
		res, err := Run(machine.Iris(), p, spec, prog)
		if err != nil {
			return false
		}
		if res.Cycles <= 0 {
			return false
		}
		for s := range executed {
			for _, c := range executed[s] {
				if c != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestProcBusyMetrics: busy time sums to roughly the serial compute
// cycles, and a balanced loop under a good scheduler has low busy
// imbalance.
func TestProcBusyMetrics(t *testing.T) {
	res, err := Run(machine.Ideal(8), 8, sched.SpecGSS(), ConstLoop("busy", 4096, 25))
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, b := range res.ProcBusyCycles {
		total += b
	}
	if want := 4096.0 * 25; total < want*0.999 || total > want*1.001 {
		t.Errorf("busy total %v, want %v", total, want)
	}
	if imb := res.BusyImbalance(); imb > 0.05 {
		t.Errorf("balanced loop busy imbalance %v", imb)
	}
	// A skewed loop under STATIC must show high imbalance.
	skew := SingleLoop("skew", ParLoop{
		N: 1024,
		Cost: func(i int) float64 {
			if i < 128 {
				return 1000
			}
			return 1
		},
	})
	st, err := Run(machine.Ideal(8), 8, sched.SpecStatic(), skew)
	if err != nil {
		t.Fatal(err)
	}
	if imb := st.BusyImbalance(); imb < 0.5 {
		t.Errorf("static skewed busy imbalance %v, want high", imb)
	}
	if (Metrics{}).BusyImbalance() != 0 {
		t.Error("zero metrics imbalance")
	}
}

// TestEngineReleasesCallerMemory: after a run, the engine that goes
// back to the pool holds nothing the caller passed in.
func TestEngineReleasesCallerMemory(t *testing.T) {
	executed := make([]int, 40)
	prog := Program{Name: "counted", Steps: 2, Step: func(int) ParLoop { return countedLoop(40, 10, executed) }}
	e := newEngine()
	e.simulate(machine.Iris(), 4, sched.SpecGSS(), prog, Options{
		Observer:    telemetry.ObserveEvents(telemetry.NewLog[telemetry.Event](), "cycles"),
		ActiveProcs: func(int) int { return 3 },
	})
	if e.m != nil || e.prog.Step != nil || e.spec.NewSizer != nil || e.loop.Cost != nil || e.loop.Touches != nil ||
		e.obs != nil || e.activeFn != nil || e.central.sizer != nil {
		t.Error("engine kept a reference to the caller's machine, program, spec, observer, ActiveProcs or loop")
	}
}
