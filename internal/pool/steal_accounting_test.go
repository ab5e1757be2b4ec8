package pool

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/livemetrics"
	"repro/internal/sched"
)

// TestPlaneStealAccounting: on a skewed AFS run the plane's steal
// counter, its steal-latency histogram, the stolen chunks its workers
// ran and the victims it charged all count the same steals. They agree
// even when a stolen chunk's body panics: that steal then counts
// nowhere in the plane, though core.Stats.Steals still has it.
func TestPlaneStealAccounting(t *testing.T) {
	x := newExec(t, 4)
	plane := livemetrics.New(livemetrics.Options{})
	x.SetObservability(plane)

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

	s := plane.Snapshot()
	var stolen, victimized int64
	for _, w := range s.Workers {
		stolen += w.StolenExec
		victimized += w.Victimized
	}
	if s.Counters.Steals == 0 {
		t.Fatal("skewed run stole nothing")
	}
	if s.Counters.Steals != s.Steal.Count || s.Steal.Count != stolen || stolen != victimized {
		t.Errorf("steals counter %d, steal histogram %d, stolen chunks %d, victimized %d: want all equal",
			s.Counters.Steals, s.Steal.Count, stolen, victimized)
	}
}
