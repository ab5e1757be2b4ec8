package telemetry

import (
	"fmt"
	"sync"
)

// ExpBuckets builds n exponentially growing upper bounds starting at
// start with the given growth factor — the standard shape for latency
// distributions.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// StepSample is one per-step snapshot of a registry's series: every
// value keyed by its name (Registry.MetricNames).
type StepSample struct {
	Step   int
	Values map[string]float64
}

// Registry is the metrics series ObserveMetrics writes: the six
// scheduling counters of OpCounts (central_ops, local_ops,
// remote_ops, steals, migrated_iters, iterations), grown at every
// barrier, and the count and sum of chunk size, queue wait and steal
// latency. Each barrier appends one StepSample, turning the registry
// into a per-step time series (affinity decay across outer-loop
// phases shows up as the step-over-step delta of migrated_iters). One
// registry shared by many runs holds their sum. Safe for concurrent
// use.
type Registry struct {
	mu     sync.Mutex
	unit   string   // the wait metrics' time unit, set by ObserveMetrics
	names  []string // the sample keys in column order; nil until then
	ops    OpCounts
	series []StepSample

	// Each quantity is locked on its own, so the workers observing
	// chunks and waits contend neither with each other nor with the
	// barrier's snapshot.
	chunkSize, queueWait, stealLatency countSum
}

// countSum is the count and sum of one observed quantity.
type countSum struct {
	mu  sync.Mutex
	n   int64
	sum float64
}

func (c *countSum) observe(v float64) {
	c.mu.Lock()
	c.n++
	c.sum += v
	c.mu.Unlock()
}

func (c *countSum) read() (n, sum float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return float64(c.n), c.sum
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// setUnit names the registry's wait metrics after unit. A registry
// holds one unit: attaching it again under another panics.
func (r *Registry) setUnit(unit string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.unit == unit {
		return
	}
	if r.unit != "" {
		panic("telemetry: registry already holds " + r.unit + " metrics, cannot observe " + unit)
	}
	r.unit = unit
	r.names = []string{
		"central_ops", "local_ops", "remote_ops", "steals", "migrated_iters", "iterations",
		"chunk_size_count", "chunk_size_sum",
		"queue_wait_" + unit + "_count", "queue_wait_" + unit + "_sum",
		"steal_latency_" + unit + "_count", "steal_latency_" + unit + "_sum",
	}
}

// barrier adds one barrier's scheduling counts and records the step's
// sample.
func (r *Registry) barrier(step int, ops OpCounts) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops.CentralOps += ops.CentralOps
	r.ops.LocalOps += ops.LocalOps
	r.ops.RemoteOps += ops.RemoteOps
	r.ops.Steals += ops.Steals
	r.ops.MigratedIters += ops.MigratedIters
	r.ops.Iterations += ops.Iterations
	r.snapshot(step)
}

// Snapshot appends one StepSample of every current value, labelled
// with the given step. Every barrier takes one; a caller takes one
// more to read the totals after a run.
func (r *Registry) Snapshot(step int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.snapshot(step)
}

func (r *Registry) snapshot(step int) {
	o := r.ops
	sizeN, sizeSum := r.chunkSize.read()
	waitN, waitSum := r.queueWait.read()
	stealN, stealSum := r.stealLatency.read()
	vals := [...]float64{
		float64(o.CentralOps), float64(o.LocalOps), float64(o.RemoteOps),
		float64(o.Steals), float64(o.MigratedIters), float64(o.Iterations),
		sizeN, sizeSum, waitN, waitSum, stealN, stealSum,
	}
	m := make(map[string]float64, len(r.names))
	for i, name := range r.names {
		m[name] = vals[i]
	}
	r.series = append(r.series, StepSample{Step: step, Values: m})
}

// Series returns the recorded per-step samples in order.
func (r *Registry) Series() []StepSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]StepSample(nil), r.series...)
}

// MetricNames returns every sample key in column order: the six
// counters, then the count/sum pairs of chunk_size,
// queue_wait_<unit> and steal_latency_<unit>. Empty until
// ObserveMetrics attaches the registry.
func (r *Registry) MetricNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.names...)
}

// String summarises the registry for debugging.
func (r *Registry) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("registry{%d metrics, %d samples}", len(r.names), len(r.series))
}
