package telemetry

// Observer is the single instrumentation surface of both execution
// substrates (core.Config.Observer, sim.Options.Observer). A run
// reports itself as three record shapes, and every consumer — the
// event stream, the provenance stream, the metrics registry, the live
// plane and the span tracer — derives what it needs from them:
//
//   - Chunk: one Prov per executed chunk, the per-chunk record of
//     (step, proc, owner, stolen, lo, hi, start, end, queue wait);
//   - Dispatch: one Event per successful steal (KindSteal), per
//     queue wait (KindQueueWait; the real runtime reports every
//     central-queue acquisition, the simulator every nonzero wait)
//     carrying the wait as [Start, End], and, on the simulator, per
//     forced cache flush (KindCacheFlush);
//   - Phase: a PhaseMark at each phase begin and at its barrier.
//
// A stolen chunk's Prov is the whole record of its steal: Owner is the
// victim, QueueWait the steal's length and Start its End, so the
// KindSteal event dispatched just before is Prov.DispatchEvent. The live
// plane and the span tracer read only Chunk and Phase: they keep the
// records and marks, and Lower derives their steal and contended
// queue-wait events from the records. A chunk whose body panics
// reports no Prov, so its steal is only the event.
//
// On the real runtime Chunk and Dispatch are called inline from
// worker goroutines, so implementations must be safe for concurrent
// use and cheap; Phase is called by the submitting goroutine. Times
// are nanoseconds since the submission started on the real runtime
// and simulated cycles on the simulator. Compose several observers
// with TeeObservers.
type Observer interface {
	Phase(PhaseMark)
	Chunk(Prov)
	Dispatch(Event)
}

// PhaseMark is one phase boundary of a run. Each phase produces two:
// at begin, once the phase's queues are filled (Barrier false, End ==
// Start), and after the barrier drains (Barrier true), when Start
// still carries the begin time and every chunk of the phase
// happens-before the call. Start and End are nanoseconds on the real
// runtime and cycles on the simulator.
type PhaseMark struct {
	Step    int
	N       int // the phase's iteration count
	Start   float64
	End     float64
	Barrier bool
	// Ops is the phase's own scheduling activity (barrier marks only):
	// the growth of the submission's counters since the previous
	// barrier, so consumers sum marks across phases and submissions.
	Ops OpCounts
}

// OpCounts is scheduling activity summed over queues: the counters of
// core.Stats.
type OpCounts struct {
	CentralOps, LocalOps, RemoteOps   int64
	Steals, MigratedIters, Iterations int64
}

// Sub returns the growth from o to c.
func (c OpCounts) Sub(o OpCounts) OpCounts {
	return OpCounts{
		CentralOps:    c.CentralOps - o.CentralOps,
		LocalOps:      c.LocalOps - o.LocalOps,
		RemoteOps:     c.RemoteOps - o.RemoteOps,
		Steals:        c.Steals - o.Steals,
		MigratedIters: c.MigratedIters - o.MigratedIters,
		Iterations:    c.Iterations - o.Iterations,
	}
}

// Event returns the mark as a phase-boundary event: KindPhaseBegin
// (Hi = N) at begin, KindPhaseEnd at the barrier.
func (m PhaseMark) Event() Event {
	if m.Barrier {
		return Event{Kind: KindPhaseEnd, Proc: -1, Victim: -1, Step: m.Step, Start: m.End, End: m.End}
	}
	return Event{Kind: KindPhaseBegin, Proc: -1, Victim: -1, Step: m.Step, Hi: m.N, Start: m.Start, End: m.Start}
}

// ExecEvent returns the record's execution as a KindExec event.
func (p Prov) ExecEvent() Event {
	return Event{Kind: KindExec, Proc: p.Proc, Victim: -1, Step: p.Step, Lo: p.Lo, Hi: p.Hi, Start: p.Start, End: p.End}
}

// DispatchEvent returns the dispatch that preceded the record's chunk,
// when an event stream carries one: a stolen chunk's steal (the range
// moved from Owner to Proc), or an unstolen chunk's queue wait when it
// is Notable; either over [Start-QueueWait, Start].
func (p Prov) DispatchEvent() (Event, bool) {
	if p.Stolen {
		return Event{Kind: KindSteal, Proc: p.Proc, Victim: p.Owner, Step: p.Step, Lo: p.Lo, Hi: p.Hi, Start: p.Start - p.QueueWait, End: p.Start}, true
	}
	e := Event{Kind: KindQueueWait, Proc: p.Proc, Victim: -1, Step: p.Step, Start: p.Start - p.QueueWait, End: p.Start}
	return e, e.Notable()
}

// Notable reports whether a real-runtime dispatch event belongs in an
// event stream: every steal, but only contended queue waits (longer
// than 1µs, so the times must be nanoseconds) — an uncontended mutex
// acquisition on every fetch would drown the stream in noise.
func (e Event) Notable() bool {
	return e.Kind != KindQueueWait || e.End-e.Start > 1e3
}

// ObserveEvents adapts an event sink: exec events derived from chunk
// records, every dispatch event, and phase-boundary events. nil for a
// nil sink.
func ObserveEvents(s Sink) Observer {
	if s == nil {
		return nil
	}
	return eventObserver{s}
}

type eventObserver struct{ s Sink }

func (o eventObserver) Phase(m PhaseMark) { o.s.Emit(m.Event()) }
func (o eventObserver) Chunk(p Prov)      { o.s.Emit(p.ExecEvent()) }
func (o eventObserver) Dispatch(e Event)  { o.s.Emit(e) }

// ObserveProv adapts a provenance sink: one record per executed chunk.
// nil for a nil sink.
func ObserveProv(s ProvSink) Observer {
	if s == nil {
		return nil
	}
	return provObserver{s}
}

type provObserver struct{ s ProvSink }

func (o provObserver) Phase(PhaseMark)  {}
func (o provObserver) Chunk(p Prov)     { o.s.Emit(p) }
func (o provObserver) Dispatch(e Event) {}

// ObserveMetrics adapts a registry: its counters grow by each
// barrier's OpCounts, chunk_size counts and sums every chunk's
// iterations, queue_wait_<unit> and steal_latency_<unit> every queue
// wait and steal, and every barrier records one sample at its step.
// unit is the substrate's time unit, "ns" (real runtime) or "cycles"
// (simulator). nil for a nil registry.
func ObserveMetrics(r *Registry, unit string) Observer {
	if r == nil {
		return nil
	}
	if unit != "ns" && unit != "cycles" {
		panic("telemetry: ObserveMetrics unit must be \"ns\" or \"cycles\", got " + unit)
	}
	r.setUnit(unit)
	return metricsObserver{r}
}

type metricsObserver struct{ r *Registry }

func (o metricsObserver) Chunk(p Prov) { o.r.chunkSize.observe(float64(p.Iters())) }

func (o metricsObserver) Dispatch(e Event) {
	switch e.Kind {
	case KindSteal:
		o.r.stealLatency.observe(e.End - e.Start)
	case KindQueueWait:
		o.r.queueWait.observe(e.End - e.Start)
	}
}

func (o metricsObserver) Phase(m PhaseMark) {
	if m.Barrier {
		o.r.barrier(m.Step, m.Ops)
	}
}

// TeeObservers composes observers, dropping nils: nil when none
// remain, the single observer itself when one does, so callers keep
// the single-nil-check fast path. Only a true fan-out allocates.
func TeeObservers(obs ...Observer) Observer {
	var n int
	var last Observer
	for _, o := range obs {
		if o != nil {
			n, last = n+1, o
		}
	}
	if n < 2 {
		return last
	}
	out := make(multiObserver, 0, n)
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	return out
}

type multiObserver []Observer

func (m multiObserver) Phase(p PhaseMark) {
	for _, o := range m {
		o.Phase(p)
	}
}

func (m multiObserver) Chunk(p Prov) {
	for _, o := range m {
		o.Chunk(p)
	}
}

func (m multiObserver) Dispatch(e Event) {
	for _, o := range m {
		o.Dispatch(e)
	}
}
