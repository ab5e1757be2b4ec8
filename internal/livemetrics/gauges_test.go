package livemetrics

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

// foldRecs folds recs into p as one worker buffer of a submission.
func foldRecs(p *Plane, recs ...telemetry.Prov) { p.fold(0, []workerBuf{{recs: recs}}, nil) }

// TestGaugesRefreshAtRead: the rate gauges are computed by the read
// itself, over the time since the last refresh, and a read within
// sampleEvery of it leaves them as they were.
func TestGaugesRefreshAtRead(t *testing.T) {
	p := New(Options{})
	// 100 ms busy on worker 0, which also loses one chunk to worker 1.
	foldRecs(p, telemetry.Prov{Proc: 0, Owner: 0, Lo: 0, Hi: 4, Start: 0, End: 1e8},
		telemetry.Prov{Proc: 1, Owner: 0, Stolen: true, Lo: 4, Hi: 8, Start: 0, End: 5e7, QueueWait: 10})
	if w := p.Snapshot().Workers[0]; w.Utilization != 0 || w.StealRate != 0 {
		t.Fatalf("gauges refreshed %v after New: %+v", time.Since(p.t0), w)
	}
	p.mu.Lock()
	p.prevAt = time.Now().Add(-time.Second)
	p.mu.Unlock()
	w := p.Snapshot().Workers
	if u := w[0].Utilization; u > 0.1 || u < 0.09 {
		t.Errorf("worker 0 utilization %g over ~1 s with 100 ms busy, want ~0.1", u)
	}
	if r := w[0].StealRate; r > 1 || r < 0.9 {
		t.Errorf("worker 0 steal rate %g over ~1 s with one steal, want ~1/s", r)
	}
	if u := w[1].Utilization; u > 0.05 || u < 0.045 {
		t.Errorf("worker 1 utilization %g over ~1 s with 50 ms busy, want ~0.05", u)
	}
	foldRecs(p, telemetry.Prov{Proc: 0, Owner: 0, Lo: 0, Hi: 4, Start: 0, End: 5e8})
	again := p.Snapshot().Workers
	for i := range w {
		if again[i].Utilization != w[i].Utilization || again[i].StealRate != w[i].StealRate {
			t.Errorf("worker %d: a read within sampleEvery changed the gauges: %+v, then %+v", i, w[i], again[i])
		}
	}
}
