package telemetry

import (
	"cmp"
	"slices"
)

// Lower turns a run's phase marks and chunk records into the events
// and records of a TraceFile: the one lowering the span tracer and the
// flight recorder share, so their views of one submission agree, and
// the one ObserveEvents streams. A mark becomes its boundary event
// (PhaseMark.Event) and any cache flush (PhaseMark.FlushEvent), a
// record its dispatch event if any (Prov.DispatchEvent, with unit the
// substrate's time unit) and its exec event. Lower
// sorts recs in place by (step, start, proc) and returns them with the
// events sorted by (step, start, kind), so the output does not depend
// on the order the marks and records arrived in.
func Lower(marks []PhaseMark, recs []Prov, unit string) ([]Event, []Prov) {
	slices.SortFunc(recs, func(a, b Prov) int { return compareEvents(a.ExecEvent(), b.ExecEvent()) })
	// The exec events now follow the records' order; the few boundary,
	// flush and dispatch events are sorted apart and merged in.
	side := make([]Event, 0, len(marks))
	for _, m := range marks {
		side = append(side, m.Event())
		if e, ok := m.FlushEvent(); ok {
			side = append(side, e)
		}
	}
	for _, p := range recs {
		if e, ok := p.DispatchEvent(unit); ok {
			side = append(side, e)
		}
	}
	slices.SortFunc(side, compareEvents)
	evs := make([]Event, 0, len(side)+len(recs))
	for _, p := range recs {
		e := p.ExecEvent()
		for len(side) > 0 && compareEvents(side[0], e) < 0 {
			evs, side = append(evs, side[0]), side[1:]
		}
		evs = append(evs, e)
	}
	return append(evs, side...), recs
}

// compareEvents orders events by (step, start, kind), then by proc and
// range, which no two events of one run share.
func compareEvents(a, b Event) int {
	switch {
	case a.Step != b.Step:
		return cmp.Compare(a.Step, b.Step)
	case a.Start != b.Start:
		return cmp.Compare(a.Start, b.Start)
	case a.Kind != b.Kind:
		return cmp.Compare(kindRank[a.Kind], kindRank[b.Kind])
	case a.Proc != b.Proc:
		return cmp.Compare(a.Proc, b.Proc)
	}
	return cmp.Compare(a.Lo, b.Lo)
}

// kindRank ranks the kinds of same-time events of one step.
var kindRank = [...]int{KindPhaseBegin: 0, KindSteal: 1, KindQueueWait: 1, KindCacheFlush: 1, KindExec: 2, KindPhaseEnd: 3}
