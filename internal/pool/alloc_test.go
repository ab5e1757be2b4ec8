package pool

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/livemetrics"
	"repro/internal/sched"
	"repro/internal/spantrace"
)

// TestTracedSubmissionAllocs holds a warm traced submission to a fixed
// allocation budget over the same submission untraced. Self-scheduling
// gives each of the n iterations its own chunk span, so a span buffer
// that regrew on every submission would show as a dozen allocations
// per worker; the tracer hands each sealed submission's buffers to the
// next instead, leaving only the trace's own set-up and seal.
func TestTracedSubmissionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const procs, n, budget = 4, 4096, 8
	x := newExec(t, procs)
	spec, err := sched.ByName("ss")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Spec: spec}
	run := func() {
		if _, err := x.Submit(context.Background(), cfg, n, func(int) {}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	bare := testing.AllocsPerRun(10, run)
	tracer := spantrace.NewTracer(spantrace.Options{})
	x.SetTracer(tracer)
	// Which worker runs how many chunks varies run to run, so the
	// buffers take a few submissions to grow to the largest share.
	for i := 0; i < 20; i++ {
		run()
	}
	traced := testing.AllocsPerRun(10, run)
	t.Logf("allocations per submission: %v bare, %v traced", bare, traced)
	if traced-bare > budget {
		t.Errorf("a warm traced submission allocates %v more than a bare one, budget %d", traced-bare, budget)
	}
	if tr := tracer.Traces()[0]; tr.Chunks() != n || tr.Dropped != 0 {
		t.Errorf("the last trace holds %d chunk spans and %d drops, want %d and 0", tr.Chunks(), tr.Dropped, n)
	}
}

// TestPlaneSubmissionAllocs holds a warm submission with only a live
// plane attached to one allocation over the same submission bare: the
// submission's observer. Its per-worker record buffers come back to the
// plane at each barrier and serve the next submission, and a worker
// that fills its buffer mid-phase folds it in place, so neither the
// self-scheduled loop's thousands of chunks nor its early folds
// allocate.
func TestPlaneSubmissionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const procs, n, budget = 4, 4096, 1
	x := newExec(t, procs)
	spec, err := sched.ByName("ss")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Spec: spec}
	run := func() {
		if _, err := x.Submit(context.Background(), cfg, n, func(int) {}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	bare := testing.AllocsPerRun(10, run)
	x.SetObservability(livemetrics.New(livemetrics.Options{}))
	for i := 0; i < 20; i++ {
		run()
	}
	observed := testing.AllocsPerRun(10, run)
	t.Logf("allocations per submission: %v bare, %v with a plane", bare, observed)
	if observed-bare > budget {
		t.Errorf("a warm submission with a plane allocates %v more than a bare one, budget %d", observed-bare, budget)
	}
}
