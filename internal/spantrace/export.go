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
				Compute: s.End - s.Start,
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

// FromTelemetry rebuilds a span tree from a telemetry stream — the
// simulator-substrate entry point, where no live observer runs but the
// event stream is deterministic. prov, when non-empty, supplies chunk
// ownership (owner queue, stolen flag); without it ownership is
// inferred from steal events (a chunk following its thief's steal of
// the same range is stolen). Span IDs follow the same deterministic
// scheme as live traces, so two runs at a fixed seed produce
// bit-identical trees.
func FromTelemetry(info SubmissionInfo, events []telemetry.Event, prov []telemetry.Prov) *Trace {
	procs := info.Procs
	for _, e := range events {
		if e.Proc+1 > procs {
			procs = e.Proc + 1
		}
	}
	if procs < 1 {
		procs = 1
	}
	type provKey struct {
		step, proc, lo, hi int
	}
	owners := make(map[provKey]telemetry.Prov, len(prov))
	for _, p := range prov {
		owners[provKey{p.Step, p.Proc, p.Lo, p.Hi}] = p
	}

	next := make([]int, procs) // per-worker local span index
	lastSteal := make([]uint64, procs)
	var spans []Span
	var maxEnd float64
	openPhase := make(map[int]telemetry.Event)
	phases := 0
	for _, e := range events {
		if e.End > maxEnd {
			maxEnd = e.End
		}
		switch e.Kind {
		case telemetry.KindPhaseBegin:
			openPhase[e.Step] = e
		case telemetry.KindPhaseEnd:
			begin, ok := openPhase[e.Step]
			if !ok {
				begin = telemetry.Event{Step: e.Step, Start: 0}
			}
			delete(openPhase, e.Step)
			spans = append(spans, Span{
				ID: phaseSpanID(e.Step), Parent: 1, Kind: KindPhase,
				Phase: e.Step, Proc: -1, Owner: -1, Hi: begin.Hi,
				Start: begin.Start, End: e.End,
			})
			phases++
		case telemetry.KindSteal:
			if e.Proc < 0 || e.Proc >= procs {
				continue
			}
			id := spanID(e.Proc, next[e.Proc])
			next[e.Proc]++
			spans = append(spans, Span{
				ID: id, Parent: phaseSpanID(e.Step), Kind: KindSteal,
				Phase: e.Step, Proc: e.Proc, Owner: e.Victim,
				Lo: e.Lo, Hi: e.Hi, Start: e.Start, End: e.End,
			})
			lastSteal[e.Proc] = id
		case telemetry.KindExec:
			if e.Proc < 0 || e.Proc >= procs {
				continue
			}
			s := Span{
				ID: spanID(e.Proc, next[e.Proc]), Parent: phaseSpanID(e.Step), Kind: KindChunk,
				Phase: e.Step, Proc: e.Proc, Owner: e.Proc,
				Lo: e.Lo, Hi: e.Hi, Start: e.Start, End: e.End,
			}
			next[e.Proc]++
			if p, ok := owners[provKey{e.Step, e.Proc, e.Lo, e.Hi}]; ok {
				s.Owner, s.Stolen = p.Owner, p.Stolen
			} else if lastSteal[e.Proc] != 0 {
				s.Stolen = true
				s.Owner = -1
			}
			if s.Stolen && lastSteal[e.Proc] != 0 {
				s.StealsFrom = lastSteal[e.Proc]
				lastSteal[e.Proc] = 0
			}
			spans = append(spans, s)
		}
	}
	// Any phase left open (aborted mid-phase) still gets a span.
	for step, begin := range openPhase {
		spans = append(spans, Span{
			ID: phaseSpanID(step), Parent: 1, Kind: KindPhase,
			Phase: step, Proc: -1, Owner: -1, Hi: begin.Hi,
			Start: begin.Start, End: maxEnd,
		})
		phases++
	}

	all := make([]Span, 0, len(spans)+1)
	all = append(all, Span{ID: 1, Kind: KindSubmission, Phase: -1, Proc: -1, Owner: -1, End: maxEnd})
	all = append(all, spans...)
	sort.SliceStable(all[1:], func(i, j int) bool {
		x, y := all[1+i], all[1+j]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.ID < y.ID
	})
	return &Trace{
		Label:      info.Label,
		Scheduler:  info.Scheduler,
		Procs:      procs,
		Phases:     phases,
		Outcome:    "ok",
		DurationNS: maxEnd,
		Spans:      all,
	}
}
