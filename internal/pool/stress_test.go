package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// TestConcurrentSubmitStress is the ISSUE's race stress test: many
// goroutines submit loops with mixed schedulers onto one executor,
// concurrently with panicking and cancelled submissions. Run with
// -race. It asserts, per submission:
//
//   - stats isolation: Iterations matches the submission's own loop,
//     every iteration ran exactly once;
//   - telemetry isolation: each submission's private event stream is
//     CheckTrace-clean and covers exactly its own index space;
//   - panic containment: a panicking submission fails alone with
//     *PanicError;
//   - cancellation containment: a cancelled submission stops early
//     without corrupting anyone else.
func TestConcurrentSubmitStress(t *testing.T) {
	const (
		submitters = 8
		perG       = 6
		procs      = 4
	)
	specs := []sched.Spec{
		sched.SpecAFS(), sched.SpecGSS(), sched.SpecSS(),
		sched.SpecStatic(), sched.SpecFactoring(), sched.SpecModFactoring(),
	}
	x := newExec(t, procs)
	var wg sync.WaitGroup
	errs := make(chan error, submitters*perG)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := 0; s < perG; s++ {
				idx := g*perG + s
				spec := specs[idx%len(specs)]
				n := 400 + 37*idx
				switch {
				case idx%11 == 3: // panicking submission
					_, err := x.Submit(context.Background(), core.Config{Spec: spec}, n,
						func(i int) {
							if i == n/2 {
								panic(fmt.Sprintf("sub-%d", idx))
							}
						})
					var pe *PanicError
					if !errors.As(err, &pe) {
						errs <- fmt.Errorf("sub %d: want *PanicError, got %v", idx, err)
					} else if pe.Value != fmt.Sprintf("sub-%d", idx) {
						errs <- fmt.Errorf("sub %d: got another submission's panic value %v", idx, pe.Value)
					}
				case idx%11 == 7: // cancelled submission
					ctx, cancel := context.WithCancel(context.Background())
					var count int64
					counts := make([]int32, n)
					_, err := x.SubmitPhases(ctx, core.Config{Spec: spec}, 50,
						func(int) int { return n },
						func(_, i int) {
							atomic.AddInt32(&counts[i], 1)
							if atomic.AddInt64(&count, 1) == int64(n/3) {
								cancel()
							}
						})
					cancel()
					if err != nil && !errors.Is(err, context.Canceled) {
						errs <- fmt.Errorf("sub %d: cancelled submission returned %v", idx, err)
					}
				default: // normal submission with private telemetry
					stream := telemetry.NewLog[telemetry.Event]()
					counts := make([]int32, n)
					st, err := x.Submit(context.Background(),
						core.Config{Spec: spec, Observer: telemetry.ObserveEvents(stream, "ns")}, n,
						func(i int) { atomic.AddInt32(&counts[i], 1) })
					if err != nil {
						errs <- fmt.Errorf("sub %d (%s): %v", idx, spec.Name, err)
						continue
					}
					if st.Iterations != int64(n) {
						errs <- fmt.Errorf("sub %d (%s): stats claim %d iterations, want %d",
							idx, spec.Name, st.Iterations, n)
					}
					for i, c := range counts {
						if c != 1 {
							errs <- fmt.Errorf("sub %d (%s): iteration %d ran %d times", idx, spec.Name, i, c)
							break
						}
					}
					events := stream.Records()
					if err := telemetry.Check(events).Err(); err != nil {
						errs <- fmt.Errorf("sub %d (%s): %v", idx, spec.Name, err)
					}
					var covered int64
					for _, e := range events {
						if e.Kind == telemetry.KindExec {
							covered += int64(e.Hi - e.Lo)
						}
					}
					if covered != int64(n) {
						errs <- fmt.Errorf("sub %d (%s): private stream covers %d iterations, want %d — cross-submission leak",
							idx, spec.Name, covered, n)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSubmissionsNeverOverlap: per-loop isolation means the executor
// never interleaves two submissions' bodies. A submission counts as
// active from its first executed iteration to its last, both marked
// inside the bodies, so the count never depends on when Submit
// returns to its caller.
func TestSubmissionsNeverOverlap(t *testing.T) {
	x := newExec(t, 4)
	const n = 200
	var active, maxActive int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var begun, ended int64
			_, err := x.Submit(context.Background(), core.Config{Spec: sched.SpecAFS()}, n,
				func(i int) {
					if atomic.AddInt64(&begun, 1) == 1 {
						cur := atomic.AddInt64(&active, 1)
						for {
							m := atomic.LoadInt64(&maxActive)
							if cur <= m || atomic.CompareAndSwapInt64(&maxActive, m, cur) {
								break
							}
						}
					}
					if i == 0 {
						time.Sleep(time.Millisecond)
					}
					if atomic.AddInt64(&ended, 1) == n {
						atomic.AddInt64(&active, -1)
					}
				})
			if err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if got := atomic.LoadInt64(&maxActive); got != 1 {
		t.Errorf("%d submissions ran concurrently, want per-loop isolation (1)", got)
	}
}

// TestCloseWhileSubmitting: Close during a storm of submissions lets
// admitted loops finish and fails later ones with ErrClosed — no
// hangs, no partial executions.
func TestCloseWhileSubmitting(t *testing.T) {
	x, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < 20; s++ {
				counts := make([]int32, 500)
				_, err := x.Submit(context.Background(), core.Config{Spec: sched.SpecAFS()}, len(counts),
					func(i int) { atomic.AddInt32(&counts[i], 1) })
				if errors.Is(err, ErrClosed) {
					for i, c := range counts {
						if c != 0 {
							t.Errorf("rejected submission still ran iteration %d (%d times)", i, c)
							return
						}
					}
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				for i, c := range counts {
					if c != 1 {
						t.Errorf("admitted submission: iteration %d ran %d times", i, c)
						return
					}
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	if err := x.Close(); err != nil {
		t.Error(err)
	}
	wg.Wait()
}
