package spantrace

import (
	"sort"

	"repro/internal/telemetry"
)

// Telemetry lowers a span tree back into the repo's canonical
// telemetry form — phase-boundary/exec/steal events plus one
// provenance record per chunk — so a single submission's trace feeds
// the standard forensics attribution pipeline (loopdoctor trace): the
// attribution buckets computed from these streams provably sum to the
// trace's duration, because forensics derives its per-processor span
// from exactly these windows.
func (t *Trace) Telemetry() ([]telemetry.Event, []telemetry.Prov) {
	var evs []telemetry.Event
	var pvs []telemetry.Prov
	for _, s := range t.Spans {
		switch s.Kind {
		case KindPhase:
			evs = append(evs, telemetry.Event{Kind: telemetry.KindPhaseBegin,
				Proc: -1, Victim: -1, Step: s.Phase, Hi: s.Hi,
				Start: s.Start, End: s.Start})
			evs = append(evs, telemetry.Event{Kind: telemetry.KindPhaseEnd,
				Proc: -1, Victim: -1, Step: s.Phase,
				Start: s.End, End: s.End})
		case KindChunk:
			evs = append(evs, telemetry.Event{Kind: telemetry.KindExec,
				Proc: s.Proc, Victim: -1, Step: s.Phase, Lo: s.Lo, Hi: s.Hi,
				Start: s.Start, End: s.End})
			pvs = append(pvs, telemetry.Prov{
				Step: s.Phase, Proc: s.Proc, Owner: s.Owner, Stolen: s.Stolen,
				Lo: s.Lo, Hi: s.Hi, Start: s.Start, End: s.End,
				QueueWait: s.QueueWait, Compute: s.End - s.Start,
			})
		case KindSteal:
			evs = append(evs, telemetry.Event{Kind: telemetry.KindSteal,
				Proc: s.Proc, Victim: s.Owner, Step: s.Phase, Lo: s.Lo, Hi: s.Hi,
				Start: s.Start, End: s.End})
		}
	}
	// Forensics and tracecheck expect streams ordered by (step, time) —
	// phase boundaries bracketing their chunks.
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Step != evs[j].Step {
			return evs[i].Step < evs[j].Step
		}
		if evs[i].Start != evs[j].Start {
			return evs[i].Start < evs[j].Start
		}
		return kindRank(evs[i].Kind) < kindRank(evs[j].Kind)
	})
	return evs, pvs
}

// kindRank orders same-timestamp events: a phase begin precedes the
// work it brackets, a phase end follows it.
func kindRank(k telemetry.Kind) int {
	switch k {
	case telemetry.KindPhaseBegin:
		return 0
	case telemetry.KindPhaseEnd:
		return 2
	default:
		return 1
	}
}
