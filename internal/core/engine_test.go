package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// TestEngineReuseAcrossSubmissions: one engine runs many submissions;
// each gets isolated stats and the AFS dispatcher (the persistent
// affinity state) is reused rather than rebuilt.
func TestEngineReuseAcrossSubmissions(t *testing.T) {
	e, err := NewEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var firstAFS *afsDispatch
	for sub := 0; sub < 5; sub++ {
		n := 1000 + sub*100
		var count int64
		res, err := e.Execute(Config{Spec: sched.SpecAFS()}, 1,
			func(int) int { return n },
			func(_, _ int) { atomic.AddInt64(&count, 1) })
		if err != nil {
			t.Fatalf("submission %d: %v", sub, err)
		}
		if res.Panic != nil {
			t.Fatalf("submission %d: unexpected panic %v", sub, res.Panic)
		}
		if count != int64(n) || res.Stats.Iterations != int64(n) {
			t.Fatalf("submission %d: count=%d stats=%d want %d", sub, count, res.Stats.Iterations, n)
		}
		if sub == 0 {
			firstAFS = e.afs
		} else if e.afs != firstAFS {
			t.Fatalf("submission %d: AFS dispatcher was rebuilt, not reused", sub)
		}
	}
}

// TestEngineDispatcherCacheInvalidation: a different AFS variant or
// worker count must not reuse the cached queues.
func TestEngineDispatcherCacheInvalidation(t *testing.T) {
	e, err := NewEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	run := func(cfg Config) {
		t.Helper()
		if _, err := e.Execute(cfg, 1, func(int) int { return 100 }, func(_, _ int) {}); err != nil {
			t.Fatal(err)
		}
	}
	run(Config{Spec: sched.SpecAFS()})
	first := e.afs
	run(Config{Spec: sched.SpecAFSRandom()})
	if e.afs == first {
		t.Error("afs-random reused the plain-afs dispatcher")
	}
	second := e.afs
	run(Config{Spec: sched.SpecAFSRandom(), Procs: 2})
	if e.afs == second {
		t.Error("2-worker submission reused the 4-queue dispatcher")
	}
}

// TestExecuteProcsSubset: a submission may use fewer workers than the
// engine owns, never more.
func TestExecuteProcsSubset(t *testing.T) {
	e, err := NewEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var count int64
	res, err := e.Execute(Config{Procs: 2, Spec: sched.SpecAFS()}, 1,
		func(int) int { return 500 },
		func(_, _ int) { atomic.AddInt64(&count, 1) })
	if err != nil {
		t.Fatal(err)
	}
	if count != 500 {
		t.Errorf("executed %d iterations, want 500", count)
	}
	if got := len(res.Stats.LocalOps); got != 2 {
		t.Errorf("stats sized for %d workers, want 2", got)
	}
	if _, err := e.Execute(Config{Procs: 8, Spec: sched.SpecAFS()}, 1,
		func(int) int { return 10 }, func(_, _ int) {}); err == nil {
		t.Error("oversubscribed submission accepted")
	}
}

// TestExecuteAfterClose: submissions after Close fail with ErrClosed.
func TestExecuteAfterClose(t *testing.T) {
	e, err := NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	_, err = e.Execute(Config{Spec: sched.SpecAFS()}, 1,
		func(int) int { return 10 }, func(_, _ int) {})
	if !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

// TestCtxCancelStopsMidLoop: cancelling the context stops dispatch at
// chunk granularity and Run returns the context error with partial
// stats.
func TestCtxCancelStopsMidLoop(t *testing.T) {
	const n = 100000
	ctx, cancel := context.WithCancel(context.Background())
	var count int64
	st, err := Run(Config{Procs: 4, Spec: sched.SpecAFS(), Ctx: ctx}, 1,
		func(int) int { return n },
		func(_, i int) {
			if atomic.AddInt64(&count, 1) == 100 {
				cancel()
			}
			time.Sleep(time.Microsecond)
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	got := atomic.LoadInt64(&count)
	if got >= n {
		t.Errorf("loop ran to completion (%d iterations) despite cancellation", got)
	}
	if st.Iterations > got {
		t.Errorf("stats claim %d iterations, only %d ran", st.Iterations, got)
	}
}

// TestCtxCancelledBeforeRun: an already-cancelled context never
// dispatches a single chunk.
func TestCtxCancelledBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(Config{Procs: 2, Spec: sched.SpecGSS(), Ctx: ctx}, 1,
		func(int) int { return 100 },
		func(_, _ int) { t.Error("body ran under a dead context") })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestCtxCancelBetweenPhases: cancellation between phases stops the
// outer loop and reports the completed phase count.
func TestCtxCancelBetweenPhases(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var phasesSeen int64
	st, err := Run(Config{Procs: 2, Spec: sched.SpecAFS(), Ctx: ctx}, 50,
		func(int) int { return 64 },
		func(ph, i int) {
			if i == 0 {
				atomic.AddInt64(&phasesSeen, 1)
			}
			if ph == 2 && i == 63 {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt64(&phasesSeen); got > 5 {
		t.Errorf("ran %d phases after cancellation", got)
	}
	if st.Phases >= 50 {
		t.Errorf("stats claim all %d phases completed", st.Phases)
	}
}

// TestCancelDoesNotPoisonEngine: after a cancelled submission, the
// same engine runs the next submission to completion (the ISSUE's
// acceptance criterion).
func TestCancelDoesNotPoisonEngine(t *testing.T) {
	e, err := NewEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var count int64
	_, err = e.Execute(Config{Spec: sched.SpecAFS(), Ctx: ctx}, 4,
		func(int) int { return 10000 },
		func(_, _ int) {
			if atomic.AddInt64(&count, 1) == 50 {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first submission: err = %v, want context.Canceled", err)
	}
	var count2 int64
	res, err := e.Execute(Config{Spec: sched.SpecAFS()}, 2,
		func(int) int { return 3000 },
		func(_, _ int) { atomic.AddInt64(&count2, 1) })
	if err != nil {
		t.Fatalf("second submission: %v", err)
	}
	if count2 != 6000 || res.Stats.Iterations != 6000 {
		t.Errorf("second submission executed %d (stats %d), want 6000 — cancelled chunks leaked across submissions",
			count2, res.Stats.Iterations)
	}
	if res.Stats.Phases != 2 {
		t.Errorf("second submission Phases = %d, want 2", res.Stats.Phases)
	}
}

// pinnedSteal runs a 4-iteration AFS submission on 2 workers whose
// schedule is fixed by the body alone: iteration 0 waits until worker
// 1 has taken its first chunk, iteration 2, and iteration 2 waits
// until iteration 3 has run, which only worker 0 can reach, by
// stealing it. So every run makes exactly one steal: local takes
// [2, 1], remote takes [0, 1].
func pinnedSteal(t *testing.T, e *Engine, ctx context.Context) (Result, error) {
	t.Helper()
	started2, ran3 := make(chan struct{}), make(chan struct{})
	wait := func(ch chan struct{}) {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Error("pinned schedule stalled: a worker took a chunk the pinning rules out")
		}
	}
	return e.Execute(Config{Spec: sched.SpecAFS(), Ctx: ctx}, 1, func(int) int { return 4 },
		func(_, i int) {
			switch i {
			case 0:
				wait(started2)
			case 2:
				close(started2)
				wait(ran3)
			case 3:
				close(ran3)
			}
		})
}

// TestReusedRunnerIsolated: the engine reuses one runner across
// submissions, so a submission cancelled mid-phase, and a context
// cancelled after its submission returned, must leave nothing behind.
// The clean submission that follows matches a fresh engine's counts
// exactly.
func TestReusedRunnerIsolated(t *testing.T) {
	fresh, err := NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pinnedSteal(t, fresh, context.Background())
	fresh.Close()
	if err != nil {
		t.Fatal(err)
	}

	e, err := NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var count atomic.Int64
	if _, err := e.Execute(Config{Spec: sched.SpecAFS(), Ctx: ctx}, 4, func(int) int { return 10000 },
		func(_, _ int) {
			if count.Add(1) == 50 {
				cancel()
			}
		}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submission: err = %v, want context.Canceled", err)
	}
	late, cancelLate := context.WithCancel(context.Background())
	if _, err := pinnedSteal(t, e, late); err != nil {
		t.Fatalf("submission before the late cancel: %v", err)
	}
	cancelLate()

	got, err := pinnedSteal(t, e, context.Background())
	if err != nil {
		t.Fatalf("clean submission: %v", err)
	}
	sum := func(v []int64) (s int64) {
		for _, x := range v {
			s += x
		}
		return s
	}
	type counts struct{ iters, steals, local, remote int64 }
	g := counts{got.Stats.Iterations, got.Stats.Steals, sum(got.Stats.LocalOps), sum(got.Stats.RemoteOps)}
	w := counts{want.Stats.Iterations, want.Stats.Steals, sum(want.Stats.LocalOps), sum(want.Stats.RemoteOps)}
	if g != w || w != (counts{4, 1, 3, 1}) {
		t.Errorf("clean submission after reuse: %+v; fresh engine: %+v; want {4 1 3 1}", g, w)
	}
}

// TestPanicDoesNotPoisonEngine: a panicking submission is contained in
// its Result; the workers survive and the next submission succeeds.
func TestPanicDoesNotPoisonEngine(t *testing.T) {
	e, err := NewEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Execute(Config{Spec: sched.SpecGSS()}, 1,
		func(int) int { return 10000 },
		func(_, i int) {
			if i == 500 {
				panic("contained")
			}
		})
	if err != nil {
		t.Fatalf("panicking submission returned engine error %v", err)
	}
	if s, ok := res.Panic.(string); !ok || s != "contained" {
		t.Fatalf("Panic = %v, want \"contained\"", res.Panic)
	}
	var count int64
	res, err = e.Execute(Config{Spec: sched.SpecGSS()}, 1,
		func(int) int { return 1000 },
		func(_, _ int) { atomic.AddInt64(&count, 1) })
	if err != nil || res.Panic != nil {
		t.Fatalf("post-panic submission: err=%v panic=%v", err, res.Panic)
	}
	if count != 1000 {
		t.Errorf("post-panic submission executed %d, want 1000", count)
	}
}

// goroutineStates returns the scheduler state ("chan receive",
// "runnable", ...) of every goroutine whose stack holds frame, read
// from a full goroutine dump.
func goroutineStates(frame string) []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var states []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, frame) {
			continue
		}
		header, _, _ := strings.Cut(g, "\n") // "goroutine 7 [chan receive]:"
		_, state, _ := strings.Cut(header, "[")
		state, _, _ = strings.Cut(state, "]")
		states = append(states, state)
	}
	return states
}

// waitParked waits until at least want goroutines run frame and all
// of them are blocked in a channel receive, failing after a generous
// deadline. Only the deadline is wall time; a worker that never parks
// fails regardless of host speed.
func waitParked(t *testing.T, frame string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		states := goroutineStates(frame)
		parked := len(states) >= want
		for _, s := range states {
			parked = parked && strings.HasPrefix(s, "chan receive")
		}
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines in %s: states %q, want at least %d, all parked in a channel receive", frame, states, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelBetweenPhasesLeavesNoSpinner: a multi-phase submission
// cancelled between phases never sends a last phase, so its workers
// are left polling; the poll is bounded, they park, Close stops them
// and no goroutine outlives the engine.
func TestCancelBetweenPhasesLeavesNoSpinner(t *testing.T) {
	before := runtime.NumGoroutine()
	e, err := NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, err = e.Execute(Config{Spec: sched.SpecAFS(), Ctx: ctx}, 50,
		func(int) int { return 64 },
		func(ph, i int) {
			if ph == 2 && i == 63 {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitParked(t, "core.(*Engine).worker(", 2)
	e.Close()
	for i := 0; i < 1000; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("goroutines before %d, after Close %d", before, runtime.NumGoroutine())
}

// TestMixedWidthSubmissionsAlternate: full-width and narrower
// multi-phase submissions alternate on one engine. Workers left out of
// a narrow submission sit parked on their start channels while the
// others poll between phases; every iteration of every phase still
// runs exactly once.
func TestMixedWidthSubmissionsAlternate(t *testing.T) {
	e, err := NewEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const phases, n = 6, 300
	for sub := 0; sub < 8; sub++ {
		procs := []int{0, 2, 4, 1}[sub%4]
		var counts [phases][n]int32
		res, err := e.Execute(Config{Procs: procs, Spec: sched.SpecAFS()}, phases,
			func(int) int { return n },
			func(ph, i int) { atomic.AddInt32(&counts[ph][i], 1) })
		if err != nil {
			t.Fatalf("submission %d (procs %d): %v", sub, procs, err)
		}
		for ph := range counts {
			for i, c := range counts[ph] {
				if c != 1 {
					t.Fatalf("submission %d (procs %d): phase %d iteration %d ran %d times", sub, procs, ph, i, c)
				}
			}
		}
		if res.Stats.Phases != phases || res.Stats.Iterations != phases*n {
			t.Fatalf("submission %d (procs %d): stats report %d phases, %d iterations", sub, procs,
				res.Stats.Phases, res.Stats.Iterations)
		}
	}
}

// phaseSpans records each phase's barrier mark, begin to barrier.
// Phase marks come only from the submitter, so no lock is needed.
type phaseSpans struct{ ns []float64 }

func (o *phaseSpans) Phase(m telemetry.PhaseMark) {
	if m.Barrier {
		o.ns = append(o.ns, m.End-m.Start)
	}
}
func (o *phaseSpans) Chunk(telemetry.Prov) {}

// TestStartDelayOnlyFirstPhase: a worker's StartDelay holds up the
// first phase of each submission and no later one. The checks are one
// lower bound (phase 0 waits for the delayed worker) and one that a
// delay applied every phase could never pass (some later phase beats
// the delay), so neither depends on host speed.
func TestStartDelayOnlyFirstPhase(t *testing.T) {
	e, err := NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const delay = 40 * time.Millisecond
	for sub := 0; sub < 2; sub++ {
		obs := &phaseSpans{}
		if _, err := e.Execute(Config{Spec: sched.SpecAFS(), StartDelay: []time.Duration{0, delay}, Observer: obs},
			8, func(int) int { return 64 }, func(_, _ int) {}); err != nil {
			t.Fatal(err)
		}
		if len(obs.ns) != 8 {
			t.Fatalf("submission %d: %d barrier marks, want 8", sub, len(obs.ns))
		}
		if first := time.Duration(obs.ns[0]); first < delay {
			t.Errorf("submission %d: phase 0 took %v, less than the %v start delay", sub, first, delay)
		}
		fastest := obs.ns[1]
		for _, ns := range obs.ns[2:] {
			fastest = min(fastest, ns)
		}
		if time.Duration(fastest) >= delay {
			t.Errorf("submission %d: every later phase took at least the start delay (fastest %v): delay reapplied",
				sub, time.Duration(fastest))
		}
	}
}

// TestLastPhaseParksAtOnce: after a task marked last the worker goes
// straight to the blocking receive, never polling; after any other
// task it polls before it parks.
func TestLastPhaseParksAtOnce(t *testing.T) {
	for _, last := range []bool{true, false} {
		ch := make(chan phaseTask, 1)
		yields := make(chan int, 1)
		go func() { yields <- runWorker(ch, 0) }()
		d := &staticDispatch{}
		r := &runner{p: 1, d: d, body: func(_, _ int) {}}
		d.initPhase(r, 0, 8)
		r.phaseWG.Add(1)
		ch <- phaseTask{r: r, ph: 0, last: last}
		r.phaseWG.Wait()
		waitParked(t, "core.runWorker(", 1)
		close(ch)
		got := <-yields
		if last && got != 0 {
			t.Errorf("worker yielded %d times after a last-phase task, want 0", got)
		}
		if !last {
			// Not asserted: a worker descheduled for the whole budget
			// between its clock reads parks without yielding.
			t.Logf("worker yielded %d times polling after a mid-submission task", got)
		}
	}
}

// BenchmarkPhaseHandoff prices one phase's hand-off and barrier: a
// 2-worker AFS submission of 64 phases of 64 iterations, reported as
// ns/phase. The empty body isolates the engine's fixed per-phase cost;
// the spin body (about 10 µs of serial work per phase) is long enough
// for an idle worker's thread to fall asleep between phases.
func BenchmarkPhaseHandoff(b *testing.B) {
	for _, bc := range []struct {
		name string
		work int
	}{{"empty", 0}, {"spin", 100}} {
		b.Run(bc.name, func(b *testing.B) {
			const phases = 64
			e, err := NewEngine(2)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			cfg := Config{Spec: sched.SpecAFS()}
			size := func(int) int { return 64 }
			body := func(_, i int) {
				x := 1.0
				for k := 0; k < bc.work; k++ {
					x += x * 1e-9
				}
				bodySink[i%len(bodySink)] = x
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Execute(cfg, phases, size, body); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*phases), "ns/phase")
		})
	}
}
