package telemetry

// Observer is the single instrumentation surface of both execution
// substrates (core.Config.Observer, sim.Options.Observer). A run
// reports itself as two record shapes, and every consumer — the event
// stream, the provenance stream, the metrics registry, the live plane
// and the span tracer — derives what it needs from them:
//
//   - Chunk: one Prov per executed chunk, the per-chunk record of
//     (step, proc, owner, stolen, lo, hi, start, end, queue wait);
//   - Phase: a PhaseMark at each phase begin and at its barrier.
//
// Every dispatch event is a view of a record: a stolen chunk's Prov is
// the whole record of its steal (Owner is the victim, QueueWait the
// steal's length and Start its End), and an unstolen chunk's QueueWait
// is its wait to be served, so Prov.DispatchEvent derives the steal or
// queue-wait event, and a begin mark's Flush the cache-flush event.
// ObserveEvents and Lower derive them this one way. A chunk whose body
// panics reports no Prov, so its steal has no event (core.Stats.Steals
// still counts it), and a central fetch that finds the queue empty has
// no record, so its wait has none either.
//
// On the real runtime Chunk is called inline from worker goroutines,
// so implementations must be safe for concurrent use and cheap; Phase
// is called by the submitting goroutine. Times are nanoseconds since
// the submission started on the real runtime and simulated cycles on
// the simulator. Compose several observers with TeeObservers.
type Observer interface {
	Phase(PhaseMark)
	Chunk(Prov)
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
	// Flush marks a phase that began after a forced flush of every
	// cache (begin marks only; the simulator's time-sharing quantum
	// model, sim.Options.FlushEverySteps).
	Flush bool
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

// FlushEvent returns the global cache flush the mark's phase began
// after, at the mark's Start, when it has one.
func (m PhaseMark) FlushEvent() (Event, bool) {
	return Event{Kind: KindCacheFlush, Proc: -1, Victim: -1, Step: m.Step, Start: m.Start, End: m.Start}, m.Flush
}

// ExecEvent returns the record's execution as a KindExec event.
func (p Prov) ExecEvent() Event {
	return Event{Kind: KindExec, Proc: p.Proc, Victim: -1, Step: p.Step, Lo: p.Lo, Hi: p.Hi, Start: p.Start, End: p.End}
}

// DispatchEvent returns the dispatch that preceded the record's chunk,
// when an event stream carries one, over [Start-QueueWait, Start]: a
// stolen chunk's steal (the range moved from Owner to Proc), or an
// unstolen chunk's queue wait when it is longer than unit's noise
// floor (notableWait).
func (p Prov) DispatchEvent(unit string) (Event, bool) {
	if p.Stolen {
		return Event{Kind: KindSteal, Proc: p.Proc, Victim: p.Owner, Step: p.Step, Lo: p.Lo, Hi: p.Hi, Start: p.Start - p.QueueWait, End: p.Start}, true
	}
	return Event{Kind: KindQueueWait, Proc: p.Proc, Victim: -1, Step: p.Step, Start: p.Start - p.QueueWait, End: p.Start}, p.QueueWait > notableWait(unit)
}

// notableWait is the longest queue wait an event stream leaves out, in
// unit: 1µs of nanoseconds, since on the real runtime every fetch
// takes a mutex and an uncontended acquisition would drown the stream
// in noise; none of cycles, since the simulator models every wait.
func notableWait(unit string) float64 {
	checkUnit(unit)
	if unit == "ns" {
		return 1e3
	}
	return 0
}

// checkUnit panics unless unit is a substrate's time unit: "ns" (real
// runtime) or "cycles" (simulator).
func checkUnit(unit string) {
	if unit != "ns" && unit != "cycles" {
		panic("telemetry: time unit must be \"ns\" or \"cycles\", got " + unit)
	}
}

// ObserveEvents adapts an event sink: phase-boundary and cache-flush
// events from the marks, and each chunk's dispatch event, if any, then
// its exec event as the chunk completes. unit is the substrate's time
// unit (notableWait). nil for a nil sink.
func ObserveEvents(s Sink, unit string) Observer {
	if s == nil {
		return nil
	}
	checkUnit(unit)
	return eventObserver{s, unit}
}

type eventObserver struct {
	s    Sink
	unit string
}

func (o eventObserver) Phase(m PhaseMark) {
	if e, ok := m.FlushEvent(); ok {
		o.s.Emit(e)
	}
	o.s.Emit(m.Event())
}

func (o eventObserver) Chunk(p Prov) {
	if e, ok := p.DispatchEvent(o.unit); ok {
		o.s.Emit(e)
	}
	o.s.Emit(p.ExecEvent())
}

// ObserveProv adapts a provenance sink: one record per executed chunk.
// nil for a nil sink.
func ObserveProv(s ProvSink) Observer {
	if s == nil {
		return nil
	}
	return provObserver{s}
}

type provObserver struct{ s ProvSink }

func (o provObserver) Phase(PhaseMark) {}
func (o provObserver) Chunk(p Prov)    { o.s.Emit(p) }

// ObserveMetrics adapts a registry: its counters grow by each
// barrier's OpCounts, chunk_size counts and sums every chunk's
// iterations, steal_latency_<unit> every stolen chunk's QueueWait and
// queue_wait_<unit> every other chunk's nonzero QueueWait, and every
// barrier records one sample at its step.
// unit is the substrate's time unit, "ns" (real runtime) or "cycles"
// (simulator). nil for a nil registry.
func ObserveMetrics(r *Registry, unit string) Observer {
	if r == nil {
		return nil
	}
	checkUnit(unit)
	r.setUnit(unit)
	return metricsObserver{r}
}

type metricsObserver struct{ r *Registry }

func (o metricsObserver) Chunk(p Prov) {
	o.r.chunkSize.observe(float64(p.Iters()))
	switch {
	case p.Stolen:
		o.r.stealLatency.observe(p.QueueWait)
	case p.QueueWait > 0:
		o.r.queueWait.observe(p.QueueWait)
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
