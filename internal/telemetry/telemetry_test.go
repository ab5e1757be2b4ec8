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
	s := NewLog[Event]()
	s.Emit(Event{Kind: KindExec, Proc: 1})
	s.Emit(Event{Kind: KindSteal, Proc: 2, Victim: 1})
	if s.Len() != 2 || len(s.Records()) != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Records()[1].Kind != KindSteal {
		t.Error("order not preserved")
	}
	recs := s.Records()
	recs[0].Proc = 9
	if s.Records()[0].Proc != 1 {
		t.Error("Records shares its backing array with the log")
	}
}

func TestSyncStreamConcurrent(t *testing.T) {
	s := NewLog[Prov]()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ObserveProv(s).Chunk(Prov{Proc: w, Lo: i, Hi: i + 1})
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("got %d records, want 800", s.Len())
	}
}

func TestTeeObservers(t *testing.T) {
	if TeeObservers() != nil || TeeObservers(nil, nil) != nil {
		t.Error("TeeObservers of nothing should be nil")
	}
	a, b := NewLog[Event](), NewLog[Event]()
	oa := ObserveEvents(a, "ns")
	if TeeObservers(oa, nil) != oa {
		t.Error("single observer should pass through")
	}
	both := TeeObservers(oa, ObserveEvents(b, "ns"))
	both.Chunk(Prov{Lo: 0, Hi: 4, Start: 5000, QueueWait: 2000}) // a queue wait and an exec
	both.Phase(PhaseMark{Barrier: true})
	if a.Len() != 3 || b.Len() != 3 {
		t.Errorf("fan-out delivered %d and %d events, want 3 each", a.Len(), b.Len())
	}
}

// TestObserveMetricsUnits: the time unit names the wait metrics, so a
// registry never holds cycles under an _ns name, and a registry keeps
// the unit it was first attached with.
func TestObserveMetricsUnits(t *testing.T) {
	for _, unit := range []string{"ns", "cycles"} {
		reg := NewRegistry()
		obs := ObserveMetrics(reg, unit)
		obs.Chunk(Prov{Stolen: true, QueueWait: 3})
		obs.Phase(PhaseMark{Barrier: true})
		got := reg.Series()[0].Values
		if got["steal_latency_"+unit+"_count"] != 1 || got["steal_latency_"+unit+"_sum"] != 3 {
			t.Errorf("steal_latency_%s after one 3-%s steal: %v", unit, unit, got)
		}
		if _, ok := got["queue_wait_"+unit+"_count"]; !ok {
			t.Errorf("no queue_wait_%s_count in %v", unit, got)
		}
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("an unknown unit", func() { ObserveMetrics(NewRegistry(), "ms") })
	reg := NewRegistry()
	ObserveMetrics(reg, "ns")
	ObserveMetrics(reg, "ns")
	mustPanic("a second unit on one registry", func() { ObserveMetrics(reg, "cycles") })
}

// TestRegistrySnapshotSeries: each barrier adds its OpCounts to the
// counters and records one cumulative sample, keys in column order.
func TestRegistrySnapshotSeries(t *testing.T) {
	r := NewRegistry()
	if len(r.MetricNames()) != 0 {
		t.Errorf("an unattached registry names %v", r.MetricNames())
	}
	obs := ObserveMetrics(r, "cycles")
	for step := 0; step < 3; step++ {
		obs.Chunk(Prov{Lo: 0, Hi: step, QueueWait: 2})
		obs.Phase(PhaseMark{Step: step}) // begin marks record nothing
		obs.Phase(PhaseMark{Step: step, Barrier: true, Ops: OpCounts{Steals: int64(step), Iterations: 10}})
	}
	series := r.Series()
	if len(series) != 3 {
		t.Fatalf("%d samples", len(series))
	}
	last := series[2].Values
	for name, want := range map[string]float64{
		"steals": 3, "iterations": 30, "central_ops": 0,
		"chunk_size_count": 3, "chunk_size_sum": 3,
		"queue_wait_cycles_count": 3, "queue_wait_cycles_sum": 6,
		"steal_latency_cycles_count": 0,
	} {
		if last[name] != want {
			t.Errorf("step 2 %s = %v, want %v", name, last[name], want)
		}
	}
	if series[1].Step != 1 || series[1].Values["chunk_size_count"] != 2 {
		t.Errorf("step 1 sample = %+v", series[1])
	}
	want := []string{"central_ops", "local_ops", "remote_ops", "steals", "migrated_iters", "iterations",
		"chunk_size_count", "chunk_size_sum", "queue_wait_cycles_count", "queue_wait_cycles_sum",
		"steal_latency_cycles_count", "steal_latency_cycles_sum"}
	if got := r.MetricNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("names = %v, want %v", got, want)
	}
	if len(last) != len(want) {
		t.Errorf("a sample holds %d values, want %d", len(last), len(want))
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
	ObserveMetrics(r, "ns")
	r.Snapshot(0)
	if !strings.Contains(r.String(), "12 metrics") || !strings.Contains(r.String(), "1 samples") {
		t.Errorf("String() = %q", r.String())
	}
}
