package livemetrics

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Recorder is the bounded flight recorder: one fixed-size ring of the
// most recent chunk records and phase marks across submissions, so the
// last moments before an anomaly are always recoverable without paying
// full-trace memory. Each submission's observer (Plane.Observer)
// records into its own slot; Dump merges the ring into one coherent
// stream by rebasing every submission's step numbers and zero-based
// clocks onto a shared axis, then lowers it as the span tracer lowers
// a trace (telemetry.Lower).
type Recorder struct {
	mu   sync.Mutex
	recs []flightRec
	next int
	full bool
	// droppedEvents / droppedProv count what evicted slots would have
	// dumped (a chunk record dumps its exec and any dispatch event).
	droppedEvents int64
	droppedProv   int64

	subSeq atomic.Int64

	anomMu  sync.Mutex
	anomaly *FlightDump
	anomSeq atomic.Int64
}

// flightRec is one ring slot, tagged with its submission: a chunk
// record, or a phase mark (mark) held in the record fields it shares —
// Step, Start, End, and N in Hi — so a slot stays the size of a record
// (a separate PhaseMark field would widen every slot from 120 to 208
// bytes).
type flightRec struct {
	sub           int64
	mark, barrier bool
	p             telemetry.Prov
}

func newRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{recs: make([]flightRec, capacity)}
}

// submissionObserver is one submission's view of the plane
// (Plane.Observer): chunk records feed the collector, and chunk
// records and phase marks land in the flight recorder tagged with its
// slot. A steal or a queue wait is its chunk's record.
type submissionObserver struct {
	col *Collector
	rec *Recorder
	sub int64
}

func (o *submissionObserver) Phase(m telemetry.PhaseMark) {
	o.rec.add(flightRec{sub: o.sub, mark: true, barrier: m.Barrier,
		p: telemetry.Prov{Step: m.Step, Hi: m.N, Start: m.Start, End: m.End}})
}

func (o *submissionObserver) Chunk(p telemetry.Prov) {
	o.col.chunk(p)
	o.rec.add(flightRec{sub: o.sub, p: p})
}

func (r *Recorder) add(fr flightRec) {
	r.mu.Lock()
	if old := &r.recs[r.next]; r.full {
		r.droppedEvents++
		if !old.mark {
			r.droppedProv++
			if _, ok := old.p.DispatchEvent("ns"); ok {
				r.droppedEvents++
			}
		}
	}
	r.recs[r.next] = fr
	r.next++
	if r.next == len(r.recs) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Dropped reports how many events and provenance records the ring has
// evicted since creation.
func (r *Recorder) Dropped() (events, prov int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.droppedEvents, r.droppedProv
}

// FlightDump is one frozen capture of the ring, rebased onto a single
// step/time axis.
type FlightDump struct {
	// Reason says why the dump was taken ("scrape", "panic: …").
	Reason string `json:"reason"`
	// Submissions counts the distinct submissions represented.
	Submissions int `json:"submissions"`
	// DroppedEvents / DroppedProv are ring evictions up to the dump.
	DroppedEvents int64 `json:"dropped_events"`
	DroppedProv   int64 `json:"dropped_prov"`
	// Events and Prov are telemetry.Lower's output, with rebased
	// Step/Start/End.
	Events []telemetry.Event `json:"events"`
	Prov   []telemetry.Prov  `json:"prov,omitempty"`
}

// Dump freezes the ring into one coherent stream. Submissions number
// their phases from 0 and their clocks from their own start, so the
// dump shifts each captured submission onto a shared axis: submission
// g's steps land after all of g-1's steps and its clock starts where
// g-1's last slot ended. The rebased marks and records are then
// lowered by telemetry.Lower, so every exec event in a dump has its
// Prov, and a stolen chunk's steal and a contended central-queue wait
// ([Start-QueueWait, Start]) are derived from its record.
func (r *Recorder) Dump(reason string) *FlightDump {
	r.mu.Lock()
	older := r.recs[r.next:] // oldest first, once the ring has wrapped
	if !r.full {
		older = nil
	}
	recs := slices.Concat(older, r.recs[:r.next])
	d := &FlightDump{Reason: reason, DroppedEvents: r.droppedEvents, DroppedProv: r.droppedProv}
	r.mu.Unlock()

	// One pass over the ring fixes each submission's step and time
	// offsets when its first slot arrives (the engine serialises
	// submissions, so each one's slots are contiguous) and shifts every
	// mark and record by its submission's offsets.
	type offsets struct {
		step    int
		time    float64
		maxStep int
		maxEnd  float64
	}
	subOff := map[int64]*offsets{}
	stepOff, timeOff := 0, 0.0
	var cur *offsets
	var marks []telemetry.PhaseMark
	prov := make([]telemetry.Prov, 0, len(recs))
	for _, fr := range recs {
		o, ok := subOff[fr.sub]
		if !ok {
			if cur != nil {
				stepOff += cur.maxStep + 1
				timeOff += cur.maxEnd
			}
			o = &offsets{step: stepOff, time: timeOff}
			subOff[fr.sub] = o
			cur = o
		}
		p := fr.p
		o.maxStep, o.maxEnd = max(o.maxStep, p.Step), max(o.maxEnd, p.End)
		p.Step, p.Start, p.End = p.Step+o.step, p.Start+o.time, p.End+o.time
		if fr.mark {
			marks = append(marks, telemetry.PhaseMark{Step: p.Step, N: p.Hi, Start: p.Start, End: p.End, Barrier: fr.barrier})
		} else {
			prov = append(prov, p)
		}
	}
	d.Submissions = len(subOff)
	d.Events, d.Prov = telemetry.Lower(marks, prov, "ns")
	return d
}

// Consistent trims the dump to fully captured program steps — those
// whose phase-begin and phase-end events both survived eviction — and
// returns the matching events and provenance records. The ring evicts
// oldest-first and a step's phase-begin precedes all of its work, so a
// surviving begin implies the whole step survived; the trimmed stream
// therefore satisfies telemetry.Check's coverage invariant, holds one
// Prov per exec event, and is safe to feed to forensics or tracecheck.
func (d *FlightDump) Consistent() ([]telemetry.Event, []telemetry.Prov) {
	bounds := map[int]int{} // step -> 1 (begin) | 2 (end)
	for _, e := range d.Events {
		switch e.Kind {
		case telemetry.KindPhaseBegin:
			bounds[e.Step] |= 1
		case telemetry.KindPhaseEnd:
			bounds[e.Step] |= 2
		}
	}
	evs := slices.DeleteFunc(slices.Clone(d.Events), func(e telemetry.Event) bool { return bounds[e.Step] != 3 })
	pvs := slices.DeleteFunc(slices.Clone(d.Prov), func(p telemetry.Prov) bool { return bounds[p.Step] != 3 })
	return evs, pvs
}

// NoteAnomaly freezes the ring under the given reason and stores the
// dump in the anomaly slot (latest wins), so the moments before a
// panic or cancellation survive subsequent traffic.
func (r *Recorder) NoteAnomaly(reason string) {
	d := r.Dump(reason)
	r.anomMu.Lock()
	r.anomaly = d
	r.anomMu.Unlock()
	r.anomSeq.Add(1)
}

// AnomalySeq counts anomaly dumps taken since creation — the
// monotonic edge the watchdog's flight-freeze trigger watches, so a
// panic or cancellation that froze the ring also produces a
// diagnostic bundle.
func (r *Recorder) AnomalySeq() int64 { return r.anomSeq.Load() }

// Anomaly returns the most recent anomaly dump, or nil.
func (r *Recorder) Anomaly() *FlightDump {
	r.anomMu.Lock()
	defer r.anomMu.Unlock()
	return r.anomaly
}
