// Package telemetry is the unified observability layer shared by both
// execution substrates — the discrete-event simulator (internal/sim)
// and the real goroutine runtime (internal/core).
//
// It provides:
//
//   - the Observer both engines report through (observer.go), nil by
//     default so instrumented hot paths pay exactly one nil check when
//     telemetry is off, with adapters feeding the consumers below;
//   - a structured event stream (exec / steal / queue-wait /
//     cache-flush / phase-boundary events), each a view of one of the
//     Observer's records or marks, behind a pluggable Sink
//     interface, with Log as the in-memory record of events or
//     provenance records;
//   - the metrics Registry ObserveMetrics fills: the scheduling
//     counters and the count and sum of chunk size, queue wait and
//     steal latency, sampled at every barrier (registry.go);
//   - exporters: a JSONL event dump and the metrics series as CSV
//     (export.go), and the Chrome trace-event format loadable in
//     chrome://tracing or Perfetto (chrometrace.go);
//   - an invariant verifier over the event stream asserting the
//     paper's correctness properties (tracecheck.go).
//
// Time units are deliberately unit-free float64s: the simulator emits
// machine cycles, the real runtime emits nanoseconds since run start.
// Exporters accept a scale factor to convert to their native unit.
package telemetry

import "sync"

// Kind classifies an event.
type Kind uint8

const (
	// KindExec is the execution of one chunk of iterations by one
	// processor: [Lo, Hi) over [Start, End].
	KindExec Kind = iota
	// KindSteal is the removal of chunk [Lo, Hi) from Victim's work
	// queue by Proc.
	KindSteal
	// KindQueueWait is time Proc spent waiting to be served by a work
	// queue (central-queue serialisation or a contended local queue).
	KindQueueWait
	// KindCacheFlush marks an externally-forced cache invalidation
	// (the time-sharing quantum model); Proc is -1 when global.
	KindCacheFlush
	// KindPhaseBegin marks the start of program step Step; Hi carries
	// the parallel loop's iteration count N.
	KindPhaseBegin
	// KindPhaseEnd marks the barrier completing step Step.
	KindPhaseEnd
)

var kindNames = [...]string{"exec", "steal", "queue-wait", "cache-flush", "phase-begin", "phase-end"}

// String returns the kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one scheduling occurrence. It is a plain value — no
// pointers — so streams of millions of events stay allocation-cheap.
type Event struct {
	Kind   Kind
	Proc   int // acting processor / worker (-1 for global events)
	Victim int // KindSteal: whose queue lost the chunk; -1 otherwise
	Step   int // program step (outer-loop phase)
	Lo, Hi int // iteration chunk [Lo, Hi); KindPhaseBegin: Hi = loop N
	Start  float64
	End    float64
}

// A Sink consumes events as they happen. Emit is called from the hot
// path of both runtimes; implementations should be cheap. Sinks used
// with the real goroutine runtime must be safe for concurrent use
// (Log is).
type Sink interface {
	Emit(Event)
}

// Log is an in-memory record of emitted values in arrival order,
// mutex-guarded so the real runtime's concurrent workers may share it.
// A *Log[Event] is a Sink and a *Log[Prov] a ProvSink.
type Log[T any] struct {
	mu   sync.Mutex
	recs []T
}

// NewLog creates an empty log.
func NewLog[T any]() *Log[T] { return &Log[T]{} }

// Emit appends v under the lock.
func (l *Log[T]) Emit(v T) {
	l.mu.Lock()
	l.recs = append(l.recs, v)
	l.mu.Unlock()
}

// Records returns a copy of the accumulated values.
func (l *Log[T]) Records() []T {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]T(nil), l.recs...)
}

// Len returns the number of accumulated values.
func (l *Log[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}
