package pool

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/livemetrics"
	"repro/internal/sched"
	"repro/internal/spantrace"
)

// TestPlaneStealAccounting: on a skewed AFS run the plane's steal
// counter, its steal-latency histogram, the stolen chunks its workers
// ran and the victims it charged all count the same steals. They agree
// even when a stolen chunk's body panics: that steal then counts
// nowhere in the plane, though core.Stats.Steals still has it. Its
// chunk counter, chunk histogram and workers' chunks likewise count
// the same chunks as the sealed span traces, across a one-phase
// self-scheduled loop whose workers each run more chunks than their
// record buffer holds.
func TestPlaneStealAccounting(t *testing.T) {
	x := newExec(t, 4)
	plane := livemetrics.New(livemetrics.Options{})
	x.SetObservability(plane)
	tracer := spantrace.NewTracer(spantrace.Options{})
	x.SetTracer(tracer)

	// Worker 0 starts late, so the others drain their own blocks and
	// steal its block from the back; iteration 0 goes last.
	cfg := core.Config{Procs: 4, Spec: sched.SpecAFS(), StartDelay: []time.Duration{10 * time.Millisecond}}
	const n = 1024
	if _, err := x.Submit(context.Background(), cfg, n, func(int) {}); err != nil {
		t.Fatal(err)
	}
	_, err := x.Submit(context.Background(), cfg, n, func(i int) {
		if i == 0 {
			panic("stolen chunk")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}

	ss, err := sched.ByName("ss")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Submit(context.Background(), core.Config{Procs: 4, Spec: ss}, 4*n, func(int) {}); err != nil {
		t.Fatal(err)
	}

	s := plane.Snapshot()
	var stolen, victimized, chunks int64
	for _, w := range s.Workers {
		stolen += w.StolenExec
		victimized += w.Victimized
		chunks += w.Chunks
	}
	var traced int64
	for _, tr := range tracer.Traces() {
		traced += int64(tr.Chunks())
		if tr.Dropped != 0 {
			t.Errorf("trace %d dropped %d spans", tr.TraceID, tr.Dropped)
		}
	}
	if s.Counters.Chunks < 4*n {
		t.Fatalf("plane counted %d chunks, want at least the ss loop's %d", s.Counters.Chunks, 4*n)
	}
	if s.Counters.Chunks != s.Chunk.Count || s.Chunk.Count != chunks || chunks != traced {
		t.Errorf("chunks counter %d, chunk histogram %d, workers' chunks %d, traced chunks %d: want all equal",
			s.Counters.Chunks, s.Chunk.Count, chunks, traced)
	}
	if s.Counters.Steals == 0 {
		t.Fatal("skewed run stole nothing")
	}
	if s.Counters.Steals != s.Steal.Count || s.Steal.Count != stolen || stolen != victimized {
		t.Errorf("steals counter %d, steal histogram %d, stolen chunks %d, victimized %d: want all equal",
			s.Counters.Steals, s.Steal.Count, stolen, victimized)
	}
}
