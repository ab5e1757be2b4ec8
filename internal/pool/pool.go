// Package pool is the persistent lifetime of the loop-scheduling
// runtime: a long-lived Executor accepting loop submissions from many
// goroutines onto one fixed set of workers, so the paper's affinity
// state — the deterministic ⌈N/P⌉ ownership mapping, the per-worker
// AFS queues, and the workers' warmed caches — survives across
// successive loops instead of dying with every call, and the
// per-call goroutine spawn/teardown cost is amortised across a whole
// stream of submissions (the serving-traffic shape the ROADMAP aims
// at).
//
// The dispatch/steal implementation itself lives in internal/core
// (core.Engine); this package adds the submission contract: FIFO
// admission, per-submission isolation of stats/telemetry/panics,
// context cancellation at chunk granularity, and close semantics.
// The public surface is repro.Executor.
package pool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/livemetrics"
	"repro/internal/spantrace"
	"repro/internal/telemetry"
)

// ErrClosed is returned by submissions admitted after Close —
// including a Submit already in flight when a concurrent Close wins
// admission. Its dynamic type is *core.ClosedError, so consumers that
// must classify the condition structurally (internal/serve maps it to
// HTTP 503) can use errors.As as well as errors.Is.
var ErrClosed = core.ErrClosed

// PanicError wraps a loop body's panic value. Unlike the one-shot
// ParallelFor (which re-panics like a sequential loop would), an
// Executor contains the panic to the submission that raised it: the
// submitter gets a *PanicError, the workers survive, and subsequent
// submissions run normally.
type PanicError struct {
	// Value is the original value passed to panic.
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: loop body panicked: %v", e.Value)
}

// Executor is a long-lived worker pool executing loop submissions.
// Create one with New, submit loops for its lifetime from any number
// of goroutines, and Close it when done. The zero value is not usable.
//
// Submissions are admitted in FIFO arrival order and executed one at a
// time, each getting the full worker set — per-loop isolation rather
// than interleaving, mirroring the paper's model of one parallel loop
// owning the machine between barriers.
type Executor struct {
	eng    *core.Engine
	closed atomic.Bool
	subs   atomic.Int64
	// plane, when set, is the executor's live observability plane:
	// every submission feeds it through the plane's observer and
	// reports its wall latency/outcome (see Observed).
	plane atomic.Pointer[livemetrics.Plane]
	// tracer, when set, turns every submission into a span tree: the
	// executor opens an Active per submission, adds it to the
	// submission's observer, and seals it when Execute returns. The
	// trace ID flows to the plane so latency exemplars resolve to
	// traces.
	tracer atomic.Pointer[spantrace.Tracer]
}

// New starts an executor with procs persistent workers (procs >= 1).
func New(procs int) (*Executor, error) {
	eng, err := core.NewEngine(procs)
	if err != nil {
		return nil, err
	}
	return &Executor{eng: eng}, nil
}

// Procs is the worker count fixed at creation. Submissions may use
// fewer workers (cfg.Procs), never more.
func (x *Executor) Procs() int { return x.eng.Procs() }

// Submissions counts the submissions that completed execution
// (including cancelled and panicked ones).
func (x *Executor) Submissions() int64 { return x.subs.Load() }

// SetObservability attaches a live observability plane: subsequent
// submissions feed its rolling instruments and flight recorder, and
// the plane's queue-depth gauge reads the engine live. A nil plane
// detaches. The executor does not own the plane: it may outlive the
// executor or be scraped after Close, which unbinds the engine.
func (x *Executor) SetObservability(p *livemetrics.Plane) {
	if p != nil {
		p.Bind(x.eng)
	}
	if old := x.plane.Swap(p); old != nil && old != p {
		old.Unbind(x.eng)
	}
}

// Observability returns the attached plane, or nil.
func (x *Executor) Observability() *livemetrics.Plane { return x.plane.Load() }

// SetTracer attaches a causal tracer: subsequent submissions record
// span trees into it and report their trace IDs to the plane (if one
// is attached) as latency exemplars. A nil tracer detaches. Like the
// plane, the tracer is caller-owned and may outlive the executor.
func (x *Executor) SetTracer(t *spantrace.Tracer) { x.tracer.Store(t) }

// Tracer returns the attached tracer, or nil.
func (x *Executor) Tracer() *spantrace.Tracer { return x.tracer.Load() }

// Observed executes one submission through exec with a live plane
// and a tracer (either may be nil) attached — the one attach/seal
// routine behind both API lifetimes (Executor.SubmitPhases here, the
// root package's one-shot calls). The plane's per-submission observer
// and the tracer's span collection join cfg.Observer; once exec
// returns, the span tree is sealed with the submission's outcome and
// the plane records its latency, outcome and trace ID as an exemplar.
// A submission rejected with ErrClosed never ran: its trace is
// abandoned and the plane is not told. procs and phases label the
// trace.
func Observed(cfg core.Config, plane *livemetrics.Plane, tracer *spantrace.Tracer, procs, phases int,
	exec func(core.Config) (core.Result, error)) (core.Result, error) {
	var planeObs, spanObs core.Observer
	if plane != nil {
		planeObs = plane.Observer()
	}
	var at *spantrace.Active
	if tracer != nil {
		at = tracer.StartSubmission(spantrace.SubmissionInfo{
			Scheduler: cfg.Spec.Name, Procs: procs, Phases: phases,
		})
		spanObs = at
	}
	cfg.Observer = telemetry.TeeObservers(cfg.Observer, planeObs, spanObs)
	var start time.Time
	if plane != nil {
		start = time.Now()
	}
	res, err := exec(cfg)
	if errors.Is(err, ErrClosed) {
		if at != nil {
			at.Abandon()
		}
		return res, err
	}
	outcome, trace, detail := livemetrics.OutcomeOK, "ok", ""
	switch {
	case res.Panic != nil:
		outcome, trace, detail = livemetrics.OutcomePanicked, "panicked", fmt.Sprint(res.Panic)
	case err != nil:
		outcome, trace, detail = livemetrics.OutcomeCancelled, "cancelled", err.Error()
	}
	var traceID uint64
	if at != nil {
		traceID = at.End(trace).TraceID
	}
	if plane != nil {
		plane.ObserveSubmission(time.Since(start), outcome, detail, traceID)
	}
	return res, err
}

// Submit executes body(i) for i in [0, n) on the pool under cfg and
// blocks until the loop completes, is cancelled, or panics. Safe for
// concurrent use.
func (x *Executor) Submit(ctx context.Context, cfg core.Config, n int, body func(i int)) (core.Stats, error) {
	return x.SubmitPhases(ctx, cfg, 1, func(int) int { return n }, func(_, i int) { body(i) })
}

// SubmitPhases executes a phased loop (the paper's parallel-loop-in-
// sequential-loop shape) on the pool: body(ph, i) for i in [0, n(ph))
// with a barrier between phases. ctx cancels at chunk granularity:
// in-flight chunks finish, the barrier drains, and SubmitPhases
// returns the context's error with partial stats — without poisoning
// subsequent submissions. A body panic is returned as *PanicError.
func (x *Executor) SubmitPhases(ctx context.Context, cfg core.Config, phases int, n func(ph int) int, body func(ph, i int)) (core.Stats, error) {
	if x.closed.Load() {
		return core.Stats{}, ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cfg.Ctx = ctx
	procs := cfg.Procs
	if procs <= 0 || procs > x.eng.Procs() {
		procs = x.eng.Procs()
	}
	res, err := Observed(cfg, x.plane.Load(), x.tracer.Load(), procs, phases,
		func(cfg core.Config) (core.Result, error) { return x.eng.Execute(cfg, phases, n, body) })
	if !errors.Is(err, ErrClosed) {
		x.subs.Add(1)
	}
	if res.Panic != nil {
		return res.Stats, &PanicError{Value: res.Panic}
	}
	return res.Stats, err
}

// Close stops the workers after in-flight submissions complete.
// Later submissions fail with ErrClosed, and the attached plane, if
// any, stops reading the engine. Close is idempotent and safe to call
// concurrently with Submit.
func (x *Executor) Close() error {
	x.closed.Store(true)
	x.eng.Close()
	if p := x.plane.Load(); p != nil {
		p.Unbind(x.eng)
	}
	return nil
}
