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
//     cache-flush / phase-boundary events) behind a pluggable Sink
//     interface;
//   - a metrics Registry of named counters, gauges and fixed-bucket
//     histograms with per-step time-series snapshots (registry.go);
//   - exporters: JSONL and CSV event dumps (export.go) and the Chrome
//     trace-event format loadable in chrome://tracing or Perfetto
//     (chrometrace.go);
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
// (use SyncStream or wrap with Synchronized).
type Sink interface {
	Emit(Event)
}

// Stream is an in-memory Sink accumulating events in order. It is NOT
// safe for concurrent use — it matches the single-threaded simulator.
type Stream struct {
	events []Event
}

// NewStream creates an empty stream.
func NewStream() *Stream { return &Stream{} }

// Emit appends an event.
func (s *Stream) Emit(e Event) { s.events = append(s.events, e) }

// Events returns the accumulated events. The caller must not mutate
// the returned slice while continuing to Emit.
func (s *Stream) Events() []Event { return s.events }

// Len returns the number of accumulated events.
func (s *Stream) Len() int { return len(s.events) }

// Reset discards all accumulated events, keeping capacity.
func (s *Stream) Reset() { s.events = s.events[:0] }

// SyncStream is a mutex-protected Stream safe for the concurrent
// workers of the real goroutine runtime.
type SyncStream struct {
	mu sync.Mutex
	s  Stream
}

// NewSyncStream creates an empty concurrent-safe stream.
func NewSyncStream() *SyncStream { return &SyncStream{} }

// Emit appends an event under the lock.
func (s *SyncStream) Emit(e Event) {
	s.mu.Lock()
	s.s.Emit(e)
	s.mu.Unlock()
}

// Events returns a copy of the accumulated events.
func (s *SyncStream) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.s.events...)
}

// Len returns the number of accumulated events.
func (s *SyncStream) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.s.events)
}

// Reset discards all accumulated events.
func (s *SyncStream) Reset() {
	s.mu.Lock()
	s.s.Reset()
	s.mu.Unlock()
}

// Synchronized wraps a sink with a mutex, making it safe for the real
// runtime's concurrent workers.
func Synchronized(s Sink) Sink {
	if s == nil {
		return nil
	}
	return &lockedSink{inner: s}
}

type lockedSink struct {
	mu    sync.Mutex
	inner Sink
}

func (l *lockedSink) Emit(e Event) {
	l.mu.Lock()
	l.inner.Emit(e)
	l.mu.Unlock()
}
