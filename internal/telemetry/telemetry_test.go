package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindExec: "exec", KindSteal: "steal", KindQueueWait: "queue-wait",
		KindCacheFlush: "cache-flush", KindPhaseBegin: "phase-begin",
		KindPhaseEnd: "phase-end", Kind(99): "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestStreamAccumulates(t *testing.T) {
	s := NewStream()
	s.Emit(Event{Kind: KindExec, Proc: 1})
	s.Emit(Event{Kind: KindSteal, Proc: 2, Victim: 1})
	if s.Len() != 2 || len(s.Events()) != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Events()[1].Kind != KindSteal {
		t.Error("order not preserved")
	}
	s.Reset()
	if s.Len() != 0 {
		t.Error("reset did not clear")
	}
}

func TestSyncStreamConcurrent(t *testing.T) {
	s := NewSyncStream()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Emit(Event{Kind: KindExec, Proc: w, Lo: i, Hi: i + 1})
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("got %d events, want 800", s.Len())
	}
}

func TestTeeObservers(t *testing.T) {
	if TeeObservers() != nil || TeeObservers(nil, nil) != nil {
		t.Error("TeeObservers of nothing should be nil")
	}
	a, b := NewStream(), NewStream()
	oa := ObserveEvents(a)
	if TeeObservers(oa, nil) != oa {
		t.Error("single observer should pass through")
	}
	both := TeeObservers(oa, ObserveEvents(b))
	both.Chunk(Prov{Lo: 0, Hi: 4})
	both.Dispatch(Event{Kind: KindQueueWait, Start: 0, End: 1})
	both.Phase(PhaseMark{Barrier: true})
	if a.Len() != 3 || b.Len() != 3 {
		t.Errorf("fan-out delivered %d and %d events, want 3 each", a.Len(), b.Len())
	}
}

// TestObserveMetricsUnits: the time unit picks the wait histograms'
// names and first bucket, so a registry never holds cycles under an
// _ns name.
func TestObserveMetricsUnits(t *testing.T) {
	for unit, first := range map[string]float64{"ns": 100, "cycles": 1} {
		reg := NewRegistry()
		ObserveMetrics(reg, unit).Dispatch(Event{Kind: KindSteal, Start: 0, End: 3})
		for _, name := range []string{"queue_wait_" + unit, "steal_latency_" + unit} {
			b := reg.Histogram(name, nil).Bounds()
			if len(b) != 12 || b[0] != first || b[1] != 4*first {
				t.Errorf("%s buckets %v, want 12 from %v by 4", name, b, first)
			}
		}
		if got := reg.Histogram("steal_latency_"+unit, nil).Count(); got != 1 {
			t.Errorf("steal_latency_%s count %d, want 1", unit, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("an unknown unit should panic")
		}
	}()
	ObserveMetrics(NewRegistry(), "ms")
}

func TestSynchronized(t *testing.T) {
	if Synchronized(nil) != nil {
		t.Error("Synchronized(nil) should stay nil")
	}
	s := NewStream()
	locked := Synchronized(s)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				locked.Emit(Event{Kind: KindExec})
			}
		}()
	}
	wg.Wait()
	if s.Len() != 200 {
		t.Errorf("got %d, want 200", s.Len())
	}
}

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	if r.Counter("ops") != c {
		t.Error("counter not deduplicated")
	}
	g := r.Gauge("load")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Errorf("gauge = %v", g.Value())
	}
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 555.5 {
		t.Errorf("hist count=%d sum=%v", h.Count(), h.Sum())
	}
	counts := h.BucketCounts()
	want := []int64{1, 1, 1, 1} // ≤1, ≤10, ≤100, overflow
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], w)
		}
	}
}

func TestRegistrySnapshotSeries(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("steals")
	h := r.Histogram("chunk", []float64{4, 16})
	for step := 0; step < 3; step++ {
		c.Add(int64(step))
		h.Observe(float64(step))
		r.Snapshot(step)
	}
	series := r.Series()
	if len(series) != 3 {
		t.Fatalf("%d samples", len(series))
	}
	if series[2].Values["steals"] != 3 {
		t.Errorf("cumulative steals = %v", series[2].Values["steals"])
	}
	if series[1].Values["chunk_count"] != 2 {
		t.Errorf("chunk_count = %v", series[1].Values["chunk_count"])
	}
	names := r.MetricNames()
	wantNames := []string{"steals", "chunk_count", "chunk_sum"}
	if len(names) != len(wantNames) {
		t.Fatalf("names = %v", names)
	}
	for i, n := range wantNames {
		if names[i] != n {
			t.Errorf("names[%d] = %q, want %q", i, names[i], n)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Errorf("bucket %d = %v", i, b[i])
		}
	}
}

func TestRegistryString(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	r.Snapshot(0)
	if !strings.Contains(r.String(), "1 metrics") || !strings.Contains(r.String(), "1 samples") {
		t.Errorf("String() = %q", r.String())
	}
}
