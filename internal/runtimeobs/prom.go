package runtimeobs

import (
	"io"

	"repro/internal/promtext"
)

// intervalCount is the help text of every interval quantile's _count.
const intervalCount = "Observations in the sample interval."

// WriteProm renders a runtime snapshot in the Prometheus text
// exposition format (version 0.0.4), for appending to the combined
// /metrics.prom scrape: the loopsched_runtime_* series sit next to
// the scheduler's own, so one dashboard correlates an affinity-hit
// drop with GC pressure without a second scrape target.
func WriteProm(w io.Writer, s Snapshot) error {
	pw := promtext.NewWriter(w)
	pw.Family("loopsched_runtime_goroutines", "gauge", "Live goroutines at the last runtime sample.")
	pw.Int("loopsched_runtime_goroutines", s.Goroutines)
	pw.Family("loopsched_runtime_heap_live_bytes", "gauge", "Bytes of live heap objects at the last runtime sample.")
	pw.Int("loopsched_runtime_heap_live_bytes", int64(s.HeapLiveBytes))
	pw.Counter("loopsched_runtime_gc_cycles_total", "Completed GC cycles since process start.", int64(s.GCCycles))
	pw.Family("loopsched_runtime_gc_cpu_fraction", "gauge", "Fraction of available CPU spent on GC over the sample interval.")
	pw.Float("loopsched_runtime_gc_cpu_fraction", s.GCCPUFraction)
	pw.Quantiles("loopsched_runtime_gc_pause_ns", "GC stop-the-world pause latency over the sample interval (ns).", intervalCount,
		s.GCPause.Count, s.GCPause.P50, s.GCPause.P90, s.GCPause.P99)
	pw.Quantiles("loopsched_runtime_sched_latency_ns", "Runnable-goroutine scheduling latency over the sample interval (ns).", intervalCount,
		s.SchedLatency.Count, s.SchedLatency.P50, s.SchedLatency.P90, s.SchedLatency.P99)
	return pw.Err()
}
