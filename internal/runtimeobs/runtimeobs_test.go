package runtimeobs

import (
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/livemetrics"
	"repro/internal/promtext"
	"repro/internal/slo"
)

// churn allocates and schedules enough to make the runtime counters
// move between samples.
func churn() {
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([][]byte, 0, 256)
			for i := 0; i < 256; i++ {
				buf = append(buf, make([]byte, 4096))
			}
			_ = buf
			runtime.Gosched()
		}()
	}
	wg.Wait()
	runtime.GC()
}

func TestSamplerIntervalSemantics(t *testing.T) {
	s := NewSampler()
	if got := s.Snapshot(); got.Goroutines != 0 || got.IntervalSeconds != 0 {
		t.Fatalf("zero-value snapshot before first sample, got %+v", got)
	}
	s.Sample() // primes cumulative baselines
	churn()
	time.Sleep(10 * time.Millisecond)
	s.Sample()
	snap := s.Snapshot()

	if snap.Goroutines < 1 {
		t.Errorf("goroutines = %d, want >= 1", snap.Goroutines)
	}
	if snap.HeapLiveBytes == 0 {
		t.Error("heap live bytes = 0")
	}
	if snap.GCCycles == 0 {
		t.Error("GC cycles = 0 after an explicit runtime.GC")
	}
	if snap.IntervalSeconds <= 0 {
		t.Errorf("interval = %g, want > 0 on the second sample", snap.IntervalSeconds)
	}
	// The churn forced a GC between the samples, so the interval pause
	// distribution must hold observations with sane quantile ordering.
	if snap.GCPause.Count < 1 {
		t.Errorf("GC pause count = %d, want >= 1 after forced GC", snap.GCPause.Count)
	}
	for _, q := range []livemetrics.Quantiles{snap.GCPause, snap.SchedLatency} {
		if q.Count > 0 && (q.P50 > q.P90 || q.P90 > q.P99 || q.P50 < 0) {
			t.Errorf("quantiles out of order: %+v", q)
		}
	}
}

// TestIntervalResetsBetweenSamples pins the delta semantics: a quiet
// interval after a noisy one reports few-to-no new pause observations,
// not the cumulative history.
func TestIntervalResetsBetweenSamples(t *testing.T) {
	s := NewSampler()
	s.Sample()
	churn()
	s.Sample()
	noisy := s.Snapshot().GCPause.Count
	s.Sample() // immediately after: nothing new happened
	quiet := s.Snapshot().GCPause.Count
	if noisy < 1 {
		t.Fatalf("noisy interval recorded no GC pauses")
	}
	if quiet >= noisy && quiet > 2 {
		t.Errorf("quiet interval count %d not below noisy %d: quantiles look cumulative, not interval", quiet, noisy)
	}
}

func TestPromValid(t *testing.T) {
	s := NewSampler()
	s.Sample()
	churn()
	s.Sample()
	var b strings.Builder
	if err := WriteProm(&b, s.Snapshot()); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	exp, err := promtext.Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, b.String())
	}
	g, err := exp.Value("loopsched_runtime_goroutines")
	if err != nil {
		t.Fatalf("missing goroutines gauge: %v", err)
	}
	if g < 1 {
		t.Errorf("goroutines gauge = %g", g)
	}
	if _, err := exp.Value("loopsched_runtime_gc_pause_ns", "quantile", "0.99"); err != nil {
		t.Errorf("missing GC pause p99: %v", err)
	}
}

// TestStartStop runs the sampler the way the daemon does: one priming
// Sample, then the shared tick loop.
func TestStartStop(t *testing.T) {
	s := NewSampler()
	s.Sample()
	stop := slo.Every(5*time.Millisecond, s.Sample)
	churn()
	time.Sleep(25 * time.Millisecond)
	stop()
	snap := s.Snapshot()
	// Only a Sample after the priming one measures an interval.
	if snap.Goroutines < 1 || snap.IntervalSeconds <= 0 {
		t.Errorf("background sampler never sampled: %+v", snap)
	}
}

func TestHistQuantileEdges(t *testing.T) {
	bounds := []float64{0, 1e-6, 1e-3, 1}
	counts := []uint64{10, 80, 10}
	if got := histQuantile(bounds, counts, 100, 0.5); got != 1e-3*1e9 {
		t.Errorf("p50 = %g, want middle bucket upper bound in ns", got)
	}
	if got := histQuantile(bounds, counts, 100, 0.05); got != 1e-6*1e9 {
		t.Errorf("p05 = %g, want first bucket upper bound in ns", got)
	}
	// A +Inf upper edge clamps to the bucket's finite lower edge.
	infBounds := []float64{0, 1e-6, math.Inf(+1)}
	infCounts := []uint64{1, 1}
	if got := histQuantile(infBounds, infCounts, 2, 0.99); got != 1e-6*1e9 {
		t.Errorf("p99 with +Inf edge = %g, want finite lower edge in ns", got)
	}
}

// dropped keeps the garbage TestHeapLiveIgnoresGarbage allocates
// reachable until the test drops it.
var dropped [][]byte

// TestHeapLiveIgnoresGarbage: HeapLiveBytes is the live heap, so
// garbage allocated after the last GC — dead, but not yet swept —
// does not count. With the collector off, 32 MiB allocated and dropped
// between two samples must not move the gauge by half that.
func TestHeapLiveIgnoresGarbage(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
	runtime.GC()
	s := NewSampler()
	s.Sample()
	before := s.Snapshot().HeapLiveBytes
	for i := 0; i < 32; i++ {
		dropped = append(dropped, make([]byte, 1<<20))
	}
	dropped = nil
	s.Sample()
	if after := s.Snapshot().HeapLiveBytes; after >= before+16<<20 {
		t.Errorf("heap_live_bytes grew from %d to %d after 32 MiB of garbage", before, after)
	}
}
