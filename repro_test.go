package repro_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/telemetry"
)

func TestParallelForDefaults(t *testing.T) {
	var count int64
	st, err := repro.ParallelFor(1000, func(i int) { atomic.AddInt64(&count, 1) })
	if err != nil {
		t.Fatal(err)
	}
	if count != 1000 || st.Iterations != 1000 {
		t.Errorf("count=%d stats=%d", count, st.Iterations)
	}
}

func TestParallelForEverySchedulerByName(t *testing.T) {
	names := []string{
		"static", "best-static", "ss", "chunk(8)", "gss", "gss(k=2)",
		"factoring", "trapezoid", "tapering", "a-gss", "afs", "afs(k=2)",
		"afs-le", "mod-factoring",
	}
	for _, name := range names {
		var count int64
		_, err := repro.ParallelFor(500, func(int) { atomic.AddInt64(&count, 1) },
			repro.WithScheduler(name), repro.WithProcs(4))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if count != 500 {
			t.Errorf("%s executed %d iterations", name, count)
		}
		count = 0
	}
}

func TestWithSchedulerUnknown(t *testing.T) {
	_, err := repro.ParallelFor(10, func(int) {}, repro.WithScheduler("quantum"))
	if err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestForPhases(t *testing.T) {
	var count int64
	st, err := repro.ForPhases(10,
		func(ph int) int { return 100 },
		func(ph, i int) { atomic.AddInt64(&count, 1) },
		repro.WithSpec(repro.AFS()), repro.WithProcs(4))
	if err != nil {
		t.Fatal(err)
	}
	if count != 1000 {
		t.Errorf("count = %d", count)
	}
	if st.Phases != 10 {
		t.Errorf("phases = %d", st.Phases)
	}
}

func TestWithCostHintAndDelay(t *testing.T) {
	var count int64
	_, err := repro.ForPhases(2,
		func(int) int { return 200 },
		func(_, i int) { atomic.AddInt64(&count, 1) },
		repro.WithSpec(repro.BestStatic()),
		repro.WithCostHint(func(ph, i int) float64 { return float64(i + 1) }),
		repro.WithStartDelay(time.Millisecond),
		repro.WithProcs(4))
	if err != nil {
		t.Fatal(err)
	}
	if count != 400 {
		t.Errorf("count = %d", count)
	}
}

func TestSchedulerRegistry(t *testing.T) {
	if len(repro.Schedulers()) < 10 {
		t.Error("expected a full algorithm registry")
	}
	s, err := repro.SchedulerByName("AFS(k=3)")
	if err != nil || s.Name != "AFS(k=3)" {
		t.Errorf("SchedulerByName: %v %v", s.Name, err)
	}
}

func TestSimulatePublicAPI(t *testing.T) {
	m, err := repro.MachineByName("iris")
	if err != nil {
		t.Fatal(err)
	}
	prog := repro.SimProgram{
		Name:  "api",
		Steps: 2,
		Step: func(int) repro.SimLoop {
			return repro.SimLoop{
				N:    100,
				Cost: func(int) float64 { return 50 },
			}
		},
	}
	res, err := repro.Simulate(m, 4, repro.AFS(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 || res.Procs != 4 || res.Machine != "Iris" {
		t.Errorf("result %+v", res)
	}
	res2, err := repro.Simulate(m, 4, repro.GSS(), prog, repro.WithSimStartDelay(1e6))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cycles <= res.Cycles {
		t.Error("delayed GSS run should be slower than undelayed AFS run here")
	}
}

func TestMachinePresets(t *testing.T) {
	for _, m := range []*repro.Machine{repro.Iris(), repro.ButterflyI(), repro.Symmetry(), repro.KSR1(), repro.IdealMachine(4)} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	if _, err := repro.MachineByName("pdp11"); err == nil {
		t.Error("unknown machine accepted")
	}
}

// TestAffinityEndToEnd is the library's headline behaviour, exercised
// through the public API only: on a simulated bus machine, AFS beats
// GSS on a data-reusing phased loop.
func TestAffinityEndToEnd(t *testing.T) {
	m := repro.Iris()
	build := func() repro.SimProgram {
		return repro.SimProgram{
			Name:  "reuse",
			Steps: 6,
			Step: func(int) repro.SimLoop {
				return repro.SimLoop{
					N:    256,
					Cost: func(int) float64 { return 2000 },
					Touches: func(i int, visit func(t repro.SimTouch)) {
						visit(repro.SimTouch{ID: uint64(i), Bytes: 4096, Write: true})
					},
				}
			},
		}
	}
	afs, err := repro.Simulate(m, 8, repro.AFS(), build())
	if err != nil {
		t.Fatal(err)
	}
	gss, err := repro.Simulate(m, 8, repro.GSS(), build())
	if err != nil {
		t.Fatal(err)
	}
	if gss.Seconds < afs.Seconds*1.2 {
		t.Errorf("affinity advantage missing: AFS %.4fs vs GSS %.4fs", afs.Seconds, gss.Seconds)
	}
}

func TestWithGrain(t *testing.T) {
	var count int64
	st, err := repro.ParallelFor(50000, func(int) { atomic.AddInt64(&count, 1) },
		repro.WithScheduler("ss"), repro.WithProcs(4), repro.WithGrain(256))
	if err != nil {
		t.Fatal(err)
	}
	if count != 50000 {
		t.Errorf("count = %d", count)
	}
	if st.CentralOps > 50000/256+8 {
		t.Errorf("grain ignored: %d central ops", st.CentralOps)
	}
}

// TestExecutorPublicAPI: the persistent executor serves a stream of
// submissions with per-submission options, isolated stats, contained
// panics and per-submission cancellation.
func TestExecutorPublicAPI(t *testing.T) {
	ex, err := repro.NewExecutor(repro.WithProcs(4), repro.WithScheduler("afs"))
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if ex.Procs() != 4 {
		t.Fatalf("Procs = %d", ex.Procs())
	}

	// A stream of loops, some overriding the default scheduler.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 1000 + g*100
			var count int64
			opts := []repro.Option{}
			if g%2 == 1 {
				opts = append(opts, repro.WithScheduler("gss"))
			}
			st, err := ex.Submit(context.Background(), n,
				func(int) { atomic.AddInt64(&count, 1) }, opts...)
			if err != nil {
				t.Errorf("submitter %d: %v", g, err)
				return
			}
			if count != int64(n) || st.Iterations != int64(n) {
				t.Errorf("submitter %d: count=%d stats=%d want %d", g, count, st.Iterations, n)
			}
		}(g)
	}
	wg.Wait()

	// Panic containment: the error is typed, later submissions work.
	_, err = ex.Submit(context.Background(), 1000, func(i int) {
		if i == 500 {
			panic("boom")
		}
	})
	var pe *repro.ExecutorPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ExecutorPanicError", err)
	}

	// Cancellation mid-loop, then a clean follow-up submission.
	ctx, cancel := context.WithCancel(context.Background())
	var count int64
	_, err = ex.SubmitPhases(ctx, 20, func(int) int { return 5000 },
		func(_, _ int) {
			if atomic.AddInt64(&count, 1) == 100 {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submission: err = %v", err)
	}
	var after int64
	if _, err := ex.Submit(context.Background(), 2000,
		func(int) { atomic.AddInt64(&after, 1) }); err != nil {
		t.Fatal(err)
	}
	if after != 2000 {
		t.Errorf("post-cancel submission executed %d, want 2000", after)
	}

	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Submit(context.Background(), 10, func(int) {}); !errors.Is(err, repro.ErrExecutorClosed) {
		t.Errorf("submit after close: err = %v, want ErrExecutorClosed", err)
	}
}

// TestParallelForCtx: the context-aware one-shot variants cancel at
// chunk granularity and surface ctx's error.
func TestParallelForCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var count int64
	_, err := repro.ParallelForCtx(ctx, 200000, func(i int) {
		if atomic.AddInt64(&count, 1) == 50 {
			cancel()
		}
		time.Sleep(time.Microsecond)
	}, repro.WithProcs(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if atomic.LoadInt64(&count) >= 200000 {
		t.Error("cancelled loop ran to completion")
	}

	// An un-cancelled context behaves exactly like ParallelFor.
	var full int64
	st, err := repro.ForPhasesCtx(context.Background(), 3,
		func(int) int { return 500 },
		func(_, _ int) { atomic.AddInt64(&full, 1) },
		repro.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	if full != 1500 || st.Phases != 3 {
		t.Errorf("count=%d phases=%d", full, st.Phases)
	}
}

// TestSimulateVariadicOptions: Simulate takes its options directly,
// and the per-field observers record the run.
func TestSimulateVariadicOptions(t *testing.T) {
	m := repro.Iris()
	build := func() repro.SimProgram {
		return repro.SimProgram{
			Name:  "opts",
			Steps: 3,
			Step: func(int) repro.SimLoop {
				return repro.SimLoop{N: 128, Cost: func(int) float64 { return 100 }}
			},
		}
	}
	events := repro.NewEventStream()
	reg := repro.NewMetricsRegistry()
	res, err := repro.Simulate(m, 4, repro.AFS(), build(),
		repro.WithSimSeed(7), repro.WithSimEvents(events), repro.WithSimMetrics(reg),
		repro.WithSimStartDelay(1000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
	if len(reg.Series()) == 0 {
		t.Error("WithSimMetrics recorded no series")
	}
	if events.Len() == 0 {
		t.Error("WithSimEvents recorded no events")
	}
}

// TestOneShotEventsDropShortQueueWaits: a one-shot WithEvents stream
// carries no queue wait of 1µs or less — uncontended central-queue
// acquisitions stay out of real-runtime streams — while every chunk is
// still there. (Simulator streams keep every wait; TestSimOutputsPinned
// pins them.)
func TestOneShotEventsDropShortQueueWaits(t *testing.T) {
	stream := repro.NewEventStream()
	const n = 4096
	if _, err := repro.ParallelFor(n, func(int) {},
		repro.WithProcs(2), repro.WithScheduler("ss"), repro.WithEvents(stream)); err != nil {
		t.Fatal(err)
	}
	iters := 0
	for _, e := range stream.Records() {
		switch e.Kind {
		case telemetry.KindQueueWait:
			if e.End-e.Start <= 1e3 {
				t.Fatalf("queue wait of %.0fns in a one-shot stream: %+v", e.End-e.Start, e)
			}
		case telemetry.KindExec:
			iters += e.Hi - e.Lo
		}
	}
	if iters != n {
		t.Errorf("exec events cover %d iterations, want %d", iters, n)
	}
}

func TestRandomizedStealPolicies(t *testing.T) {
	for _, name := range []string{"afs-rand", "afs-p2"} {
		counts := make([]int32, 5000)
		_, err := repro.ParallelFor(len(counts), func(i int) {
			atomic.AddInt32(&counts[i], 1)
			if i < 100 {
				for s := 0; s < 2000; s++ {
					_ = s * s
				}
			}
		}, repro.WithScheduler(name), repro.WithProcs(8))
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("%s: iteration %d ran %d times", name, i, c)
			}
		}
	}
}

// TestOptionErrorsNameOption: invalid option values surface as errors
// naming the offending option, internal/cli.FirstError style.
func TestOptionErrorsNameOption(t *testing.T) {
	cases := []struct {
		opt  repro.Option
		want string
	}{
		{repro.WithProcs(0), "WithProcs"},
		{repro.WithProcs(-3), "WithProcs"},
		{repro.WithScheduler("not-a-scheduler"), "WithScheduler"},
		{repro.WithGrain(-1), "WithGrain"},
		{repro.WithStartDelay(-time.Second), "WithStartDelay"},
		{repro.WithJobSpec(repro.JobSpec{Kernel: "not-a-kernel"}), "WithJobSpec"},
		{repro.WithJobSpec(repro.JobSpec{Procs: -1}), "jobspec.procs"},
	}
	for _, c := range cases {
		_, err := repro.ParallelFor(8, func(int) {}, c.opt)
		if err == nil {
			t.Errorf("want error naming %q, got nil", c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %q does not name %q", err, c.want)
		}
	}
	// The first offending option wins when several fail.
	_, err := repro.ParallelFor(8, func(int) {}, repro.WithGrain(-1), repro.WithProcs(0))
	if err == nil || !strings.Contains(err.Error(), "WithGrain") {
		t.Errorf("first-error semantics: got %v, want WithGrain error", err)
	}
}

// TestSubmitJob: a serializable JobSpec executes a registered kernel
// on the pool — the wire-submission path, run locally — and produces
// the kernel's serial checksum.
func TestSubmitJob(t *testing.T) {
	ex, err := repro.NewExecutor(repro.WithProcs(4))
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	spec := repro.JobSpec{
		Kernel:    "gauss",
		Params:    repro.JobParams{N: 48},
		Scheduler: "afs",
		Tenant:    "local",
	}
	st, sum, err := ex.SubmitJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Phases != 47 || st.Iterations == 0 {
		t.Fatalf("stats %+v, want 47 phases", st)
	}
	if sum == 0 {
		t.Fatal("gauss checksum is zero")
	}
	// Same spec over a JSON round-trip: identical work, identical sum.
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back repro.JobSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	_, sum2, err := ex.SubmitJob(context.Background(), back)
	if err != nil {
		t.Fatal(err)
	}
	if sum2 != sum {
		t.Fatalf("checksum drifted over the wire: %v vs %v", sum, sum2)
	}
	if _, _, err := ex.SubmitJob(context.Background(), repro.JobSpec{}); err == nil {
		t.Fatal("SubmitJob without a kernel must fail")
	}
	if len(repro.KernelNames()) == 0 {
		t.Fatal("no kernels registered")
	}
}
