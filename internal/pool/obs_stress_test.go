package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/livemetrics"
	"repro/internal/sched"
	"repro/internal/spantrace"
)

// TestObservabilityStress races the observability plane and the span
// tracer against the engine they watch: submitter goroutines drive
// normal, panicking and cancelled loops, starting and sealing traces
// that share the tracer's recycled span buffers, while scraper
// goroutines hammer Snapshot, flight dumps and the anomaly buffer. Run
// with -race; the final bookkeeping must balance exactly because the
// plane's counters and the spans are written on the submission path
// itself, not sampled.
//
// Scrapes are not tracecheck'd here: a cancelled phase still emits its
// phase-end with only partial index coverage, so mid-flight dumps of
// unhealthy traffic legitimately fail the coverage invariant (the
// /flight?format=trace endpoint filters to Consistent() for exactly
// this reason).
func TestObservabilityStress(t *testing.T) {
	const (
		submitters = 6
		perG       = 5
		scrapers   = 3
		procs      = 4
	)
	x := newExec(t, procs)
	plane := livemetrics.New(livemetrics.Options{})
	x.SetObservability(plane)
	tracer := spantrace.NewTracer(spantrace.Options{})
	x.SetTracer(tracer)

	spec, err := sched.ByName("afs")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, submitters*perG)
	wantPanics := 0
	wantCancels := 0
	for g := 0; g < submitters; g++ {
		for s := 0; s < perG; s++ {
			idx := g*perG + s
			switch {
			case idx%9 == 4:
				wantPanics++
			case idx%9 == 7:
				wantCancels++
			}
		}
	}
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := 0; s < perG; s++ {
				idx := g*perG + s
				n := 500 + 41*idx
				cfg := core.Config{Procs: procs, Spec: spec}
				switch {
				case idx%9 == 4: // panicking submission
					_, err := x.Submit(context.Background(), cfg, n, func(i int) {
						if i == n/2 {
							panic(fmt.Sprintf("obs-sub-%d", idx))
						}
					})
					var pe *PanicError
					if !errors.As(err, &pe) {
						errs <- fmt.Errorf("sub %d: want *PanicError, got %v", idx, err)
					}
				case idx%9 == 7: // cancelled submission
					ctx, cancel := context.WithCancel(context.Background())
					cancel() // already cancelled at admission
					if _, err := x.Submit(ctx, cfg, n, func(int) {}); !errors.Is(err, context.Canceled) {
						errs <- fmt.Errorf("sub %d: cancelled submission returned %v", idx, err)
					}
				default:
					acc := make([]float64, n)
					if _, err := x.Submit(context.Background(), cfg, n, func(i int) {
						acc[i]++
					}); err != nil {
						errs <- fmt.Errorf("sub %d: %v", idx, err)
					}
				}
			}
		}(g)
	}

	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for i := 0; i < scrapers; i++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stopScrape:
					return
				default:
				}
				snap := plane.Snapshot()
				if snap.Counters.Submissions < 0 {
					errs <- fmt.Errorf("negative submission counter")
				}
				d := plane.Recorder().Dump("stress-scrape")
				d.Consistent()
				plane.Recorder().Anomaly()
			}
		}()
	}

	wg.Wait()
	close(stopScrape)
	scrapeWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := plane.Snapshot()
	c := snap.Counters
	total := int64(submitters * perG)
	if c.Submissions != total {
		t.Errorf("submissions = %d, want %d", c.Submissions, total)
	}
	if got := c.Completed + c.Cancellations + c.Panics; got != c.Submissions {
		t.Errorf("outcomes sum to %d, submissions = %d", got, c.Submissions)
	}
	if c.Panics != int64(wantPanics) {
		t.Errorf("panics = %d, want %d", c.Panics, wantPanics)
	}
	if c.Cancellations != int64(wantCancels) {
		t.Errorf("cancellations = %d, want %d", c.Cancellations, wantCancels)
	}
	var workerChunks, workerHits int64
	for _, w := range snap.Workers {
		workerChunks += w.Chunks
		workerHits += w.AffinityHits
	}
	if workerChunks != c.Chunks {
		t.Errorf("per-worker chunks sum to %d, counter says %d", workerChunks, c.Chunks)
	}
	if workerHits > workerChunks {
		t.Errorf("affinity hits %d exceed chunks %d", workerHits, workerChunks)
	}
	traces := tracer.Traces()
	var spanChunks int64
	for _, tr := range traces {
		spanChunks += int64(tr.Chunks())
		if tr.Dropped != 0 {
			t.Errorf("trace %d dropped %d spans", tr.TraceID, tr.Dropped)
		}
	}
	if int64(len(traces)) != total || spanChunks != c.Chunks {
		t.Errorf("%d traces hold %d chunk spans, want %d traces and the plane's %d chunks", len(traces), spanChunks, total, c.Chunks)
	}
	if wantPanics+wantCancels > 0 && plane.Recorder().Anomaly() == nil {
		t.Error("no anomaly dump despite panics and cancellations")
	}
}
