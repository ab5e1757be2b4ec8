// Package runtimeobs samples the Go runtime's own metrics
// (runtime/metrics) into the shapes the observability plane already
// speaks: interval quantiles for GC pauses and scheduler latencies,
// gauges for goroutine and heap pressure, and a GC CPU fraction — the
// correlation side of auto-triage. An affinity-hit collapse with a
// simultaneous GC-pause spike or scheduler-latency blowout is a
// runtime-pressure story, not a scheduling-policy story. The daemon
// shows the latest snapshot at /runtime and as the loopsched_runtime_*
// families of the combined /metrics.prom scrape, and each diagnostic
// bundle freezes one as runtime.json, so the evidence says which.
//
// The runtime publishes pause and latency distributions as cumulative
// histograms; the sampler keeps the previous bucket counts and
// computes each interval's quantiles from the delta, so the reported
// p99 describes the window since the last Sample, not all history.
// Metrics missing from the running toolchain are skipped gracefully —
// the sampler never panics on runtime/metrics drift.
package runtimeobs

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/livemetrics"
)

// Metric names sampled from runtime/metrics. Kept in one place so the
// probe in New and the readers in Sample cannot drift apart.
const (
	nameGoroutines = "/sched/goroutines:goroutines"
	nameSchedLat   = "/sched/latencies:seconds"
	nameGCPauses   = "/gc/pauses:seconds"
	nameGCCycles   = "/gc/cycles/total:gc-cycles"
	nameHeapLive   = "/gc/heap/live:bytes"
	nameGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	nameTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

// Snapshot is one sampled view of the Go runtime.
type Snapshot struct {
	// SampledAgoSeconds is how long ago Sample last ran (0 before the
	// first sample); IntervalSeconds the span the interval quantiles
	// and the GC CPU fraction describe.
	SampledAgoSeconds float64 `json:"sampled_ago_seconds"`
	IntervalSeconds   float64 `json:"interval_seconds"`
	// Goroutines is the live goroutine count; HeapLiveBytes the bytes
	// of live heap objects as the last GC marked them (garbage
	// allocated since does not count); GCCycles completed GC cycles
	// since process start.
	Goroutines    int64  `json:"goroutines"`
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	GCCycles      uint64 `json:"gc_cycles"`
	// GCCPUFraction is the fraction of available CPU spent on GC over
	// the sample interval.
	GCCPUFraction float64 `json:"gc_cpu_fraction"`
	// GCPause and SchedLatency are interval quantiles over the
	// runtime's cumulative histograms, in nanoseconds like every
	// latency the plane reports: stop-the-world pause durations and
	// how long runnable goroutines waited for a P.
	GCPause      livemetrics.Quantiles `json:"gc_pause"`
	SchedLatency livemetrics.Quantiles `json:"sched_latency"`
}

// histState is one cumulative histogram's previous observation.
type histState struct {
	counts []uint64
	ok     bool
}

// Sampler reads runtime/metrics and serves the latest Snapshot. Safe
// for concurrent use; sampling is driven by Sample, called directly
// (deterministic callers) or from an slo.Every loop, after one direct
// call that primes the baselines.
type Sampler struct {
	mu      sync.Mutex
	samples []metrics.Sample
	idx     map[string]int
	latest  Snapshot
	lastAt  time.Time
	// previous cumulative state, for interval deltas
	schedPrev  histState
	pausePrev  histState
	gcCPUPrev  float64
	allCPUPrev float64
	cpuPrimed  bool
}

// NewSampler probes the running toolchain's metric set and returns a
// sampler over the supported subset.
func NewSampler() *Sampler {
	s := &Sampler{idx: map[string]int{}}
	supported := map[string]bool{}
	for _, d := range metrics.All() {
		supported[d.Name] = true
	}
	for _, name := range []string{
		nameGoroutines, nameSchedLat, nameGCPauses,
		nameGCCycles, nameHeapLive, nameGCCPU, nameTotalCPU,
	} {
		if supported[name] {
			s.idx[name] = len(s.samples)
			s.samples = append(s.samples, metrics.Sample{Name: name})
		}
	}
	return s
}

// Snapshot returns the most recent sample (zero before the first
// Sample call), with SampledAgoSeconds refreshed.
func (s *Sampler) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.latest
	if !s.lastAt.IsZero() {
		snap.SampledAgoSeconds = time.Since(s.lastAt).Seconds()
	}
	return snap
}

// Sample reads the runtime once and refreshes the latest snapshot.
// Interval quantities (pause/latency quantiles, GC CPU fraction)
// describe the span since the previous Sample; the first call only
// primes the cumulative baselines.
func (s *Sampler) Sample() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) > 0 {
		metrics.Read(s.samples)
	}
	now := time.Now()
	var snap Snapshot
	if !s.lastAt.IsZero() {
		snap.IntervalSeconds = now.Sub(s.lastAt).Seconds()
	}

	if v, ok := s.value(nameGoroutines); ok && v.Kind() == metrics.KindUint64 {
		snap.Goroutines = int64(v.Uint64())
	}
	if v, ok := s.value(nameHeapLive); ok && v.Kind() == metrics.KindUint64 {
		snap.HeapLiveBytes = v.Uint64()
	}
	if v, ok := s.value(nameGCCycles); ok && v.Kind() == metrics.KindUint64 {
		snap.GCCycles = v.Uint64()
	}

	snap.SchedLatency, s.schedPrev = s.intervalQuantiles(nameSchedLat, s.schedPrev)
	snap.GCPause, s.pausePrev = s.intervalQuantiles(nameGCPauses, s.pausePrev)

	gcCPU, okGC := s.float(nameGCCPU)
	allCPU, okAll := s.float(nameTotalCPU)
	if okGC && okAll {
		if s.cpuPrimed {
			if dAll := allCPU - s.allCPUPrev; dAll > 0 {
				snap.GCCPUFraction = (gcCPU - s.gcCPUPrev) / dAll
			}
		}
		s.gcCPUPrev, s.allCPUPrev, s.cpuPrimed = gcCPU, allCPU, true
	}

	s.latest = snap
	s.lastAt = now
}

func (s *Sampler) value(name string) (metrics.Value, bool) {
	i, ok := s.idx[name]
	if !ok {
		return metrics.Value{}, false
	}
	v := s.samples[i].Value
	if v.Kind() == metrics.KindBad {
		return metrics.Value{}, false
	}
	return v, true
}

func (s *Sampler) float(name string) (float64, bool) {
	v, ok := s.value(name)
	if !ok || v.Kind() != metrics.KindFloat64 {
		return 0, false
	}
	return v.Float64(), true
}

// intervalQuantiles differences a cumulative Float64Histogram against
// its previous counts and estimates quantiles of the interval's
// observations, reported in nanoseconds.
func (s *Sampler) intervalQuantiles(name string, prev histState) (livemetrics.Quantiles, histState) {
	v, ok := s.value(name)
	if !ok || v.Kind() != metrics.KindFloat64Histogram {
		return livemetrics.Quantiles{}, prev
	}
	h := v.Float64Histogram()
	if h == nil || len(h.Counts) == 0 {
		return livemetrics.Quantiles{}, prev
	}
	delta := make([]uint64, len(h.Counts))
	var total uint64
	for i, c := range h.Counts {
		d := c
		// The bucket layout is fixed for a given metric; a length change
		// (toolchain drift mid-process cannot happen, but guard anyway)
		// resets the baseline.
		if prev.ok && len(prev.counts) == len(h.Counts) {
			d = c - prev.counts[i]
		} else if prev.ok {
			d = 0
		}
		delta[i] = d
		total += d
	}
	next := histState{counts: append([]uint64(nil), h.Counts...), ok: true}
	if !prev.ok || total == 0 {
		return livemetrics.Quantiles{}, next
	}
	q := livemetrics.Quantiles{Count: int64(total)}
	q.P50 = histQuantile(h.Buckets, delta, total, 0.50)
	q.P90 = histQuantile(h.Buckets, delta, total, 0.90)
	q.P99 = histQuantile(h.Buckets, delta, total, 0.99)
	return q, next
}

// histQuantile walks the delta counts to the bucket holding the q-th
// observation and returns that bucket's upper bound in nanoseconds
// (finite-clamped: the runtime's first bound can be -Inf and the last
// +Inf).
func histQuantile(bounds []float64, counts []uint64, total uint64, q float64) float64 {
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			// Bucket i spans bounds[i]..bounds[i+1]; prefer the finite
			// edge nearest the observations.
			hi := bounds[i+1]
			if math.IsInf(hi, +1) {
				hi = bounds[i]
			}
			if math.IsInf(hi, -1) {
				hi = 0
			}
			return hi * 1e9 // seconds -> ns
		}
	}
	return 0
}
