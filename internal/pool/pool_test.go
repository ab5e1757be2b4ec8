package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

func newExec(t *testing.T, procs int) *Executor {
	t.Helper()
	x, err := New(procs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { x.Close() })
	return x
}

// TestSubmitBasic: a submission executes every iteration exactly once
// and reports its own stats.
func TestSubmitBasic(t *testing.T) {
	x := newExec(t, 4)
	const n = 5000
	counts := make([]int32, n)
	st, err := x.Submit(context.Background(), core.Config{Spec: sched.SpecAFS()}, n,
		func(i int) { atomic.AddInt32(&counts[i], 1) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != n {
		t.Errorf("Iterations = %d, want %d", st.Iterations, n)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("iteration %d ran %d times", i, c)
		}
	}
}

// TestSubmitPhasesAffinity: successive phased submissions on the same
// executor keep AFS's local-first behaviour — most ops are local, and
// the executor's persistent queues serve every submission.
func TestSubmitPhasesAffinity(t *testing.T) {
	x := newExec(t, 4)
	for sub := 0; sub < 3; sub++ {
		st, err := x.SubmitPhases(context.Background(), core.Config{Spec: sched.SpecAFS()}, 4,
			func(int) int { return 4000 }, func(_, _ int) {})
		if err != nil {
			t.Fatal(err)
		}
		// Scheduling-order specifics are host-dependent (on a 1-CPU
		// host one worker drains its queue then steals the rest), but
		// local-first dispatch and exact coverage always hold.
		var local int64
		for i := range st.LocalOps {
			local += st.LocalOps[i]
		}
		if local == 0 {
			t.Fatalf("submission %d: no local queue operations", sub)
		}
		if st.Iterations != 4*4000 {
			t.Errorf("submission %d: Iterations = %d, want %d", sub, st.Iterations, 4*4000)
		}
	}
	if got := x.Submissions(); got != 3 {
		t.Errorf("Submissions = %d, want 3", got)
	}
}

// TestPanicContained: a panicking submission returns *PanicError and
// the executor keeps serving.
func TestPanicContained(t *testing.T) {
	x := newExec(t, 4)
	_, err := x.Submit(context.Background(), core.Config{Spec: sched.SpecGSS()}, 10000,
		func(i int) {
			if i == 1234 {
				panic("kaboom")
			}
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if s, ok := pe.Value.(string); !ok || s != "kaboom" {
		t.Errorf("panic value = %v, want \"kaboom\"", pe.Value)
	}
	var count int64
	if _, err := x.Submit(context.Background(), core.Config{Spec: sched.SpecGSS()}, 1000,
		func(int) { atomic.AddInt64(&count, 1) }); err != nil {
		t.Fatalf("post-panic submission failed: %v", err)
	}
	if count != 1000 {
		t.Errorf("post-panic submission executed %d, want 1000", count)
	}
}

// TestCancelMidSubmission: cancelling one submission's context stops
// it at chunk granularity and leaves the executor healthy.
func TestCancelMidSubmission(t *testing.T) {
	x := newExec(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	var count int64
	_, err := x.SubmitPhases(ctx, core.Config{Spec: sched.SpecAFS()}, 8,
		func(int) int { return 20000 },
		func(_, _ int) {
			if atomic.AddInt64(&count, 1) == 64 {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt64(&count); got >= 8*20000 {
		t.Error("cancelled submission ran to completion")
	}
	counts := make([]int32, 2000)
	if _, err := x.Submit(context.Background(), core.Config{Spec: sched.SpecAFS()}, len(counts),
		func(i int) { atomic.AddInt32(&counts[i], 1) }); err != nil {
		t.Fatalf("post-cancel submission failed: %v", err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("post-cancel: iteration %d ran %d times — cancelled chunks leaked", i, c)
		}
	}
}

// TestSubmitAfterClose: Close rejects later submissions with ErrClosed.
func TestSubmitAfterClose(t *testing.T) {
	x := newExec(t, 2)
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := x.Submit(context.Background(), core.Config{Spec: sched.SpecAFS()}, 10, func(int) {})
	if !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

// TestPerSubmissionTelemetryIsolation: two submissions with separate
// sinks each see a complete, invariant-clean stream of exactly their
// own loop.
func TestPerSubmissionTelemetryIsolation(t *testing.T) {
	x := newExec(t, 4)
	for sub, n := range []int{3000, 1700} {
		stream := telemetry.NewLog[telemetry.Event]()
		st, err := x.Submit(context.Background(),
			core.Config{Spec: sched.SpecAFS(), Observer: telemetry.ObserveEvents(stream, "ns")}, n, func(int) {})
		if err != nil {
			t.Fatal(err)
		}
		events := stream.Records()
		rep := telemetry.Check(events)
		if err := rep.Err(); err != nil {
			t.Errorf("submission %d: %v", sub, err)
		}
		var iters int64
		for _, e := range events {
			if e.Kind == telemetry.KindExec {
				iters += int64(e.Hi - e.Lo)
			}
		}
		if iters != int64(n) || st.Iterations != int64(n) {
			t.Errorf("submission %d: stream covers %d iterations (stats %d), want %d — cross-talk?",
				sub, iters, st.Iterations, n)
		}
	}
}

// skewedBody front-loads the work onto the first quarter of each
// phase so AFS workers owning the cheap iterations must steal.
func skewedBody(_, i int) {
	reps := 20
	if i < 64 {
		reps = 800
	}
	x := 1.0
	for k := 0; k < reps; k++ {
		x += x * 1e-9
	}
	_ = x
}

// TestSharedRegistrySumsSubmissions: one registry shared by several
// submissions on one executor accumulates their sum — each counter
// equals its Stats field summed over the submissions, and each
// observed quantity's count matches the events it shadows (one steal latency
// per steal, one chunk size per executed chunk, which under AFS is one
// per local or remote queue op).
func TestSharedRegistrySumsSubmissions(t *testing.T) {
	x := newExec(t, 4)
	reg := telemetry.NewRegistry()
	cfg := core.Config{Spec: sched.SpecAFS(), Observer: telemetry.ObserveMetrics(reg, "ns")}
	const subs, phases, n = 4, 3, 256
	var central, local, remote, steals, migrated, iters int64
	for s := 0; s < subs; s++ {
		st, err := x.SubmitPhases(context.Background(), cfg, phases, func(int) int { return n }, skewedBody)
		if err != nil {
			t.Fatal(err)
		}
		central += st.CentralOps
		for q := range st.LocalOps {
			local += st.LocalOps[q]
			remote += st.RemoteOps[q]
		}
		steals += st.Steals
		migrated += st.MigratedIters
		iters += st.Iterations
	}
	if iters != subs*phases*n {
		t.Fatalf("stats cover %d iterations, want %d", iters, subs*phases*n)
	}
	series := reg.Series()
	if got := len(series); got != subs*phases {
		t.Fatalf("%d registry samples, want one per barrier (%d)", got, subs*phases)
	}
	last := series[len(series)-1].Values
	for name, want := range map[string]int64{
		"central_ops": central, "local_ops": local, "remote_ops": remote,
		"steals": steals, "migrated_iters": migrated, "iterations": iters,
	} {
		if got := last[name]; got != float64(want) {
			t.Errorf("registry %s = %v, want %d summed over %d submissions", name, got, want, subs)
		}
	}
	if got := last["steal_latency_ns_count"]; got != float64(steals) {
		t.Errorf("steal_latency_ns count = %v, want steals = %d", got, steals)
	}
	if got := last["chunk_size_count"]; got != float64(local+remote) {
		t.Errorf("chunk_size count = %v, want %d executed chunks", got, local+remote)
	}
}
