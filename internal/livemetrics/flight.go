package livemetrics

import (
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Recorder is the bounded flight recorder: one fixed-size ring of the
// most recent chunk records, phase marks and contended queue waits
// across submissions, so the last moments before an anomaly are always
// recoverable without paying full-trace memory. Each submission's
// observer (Plane.Observer) records into its own slot; Dump merges the
// ring into one coherent stream by rebasing every submission's step
// numbers and zero-based clocks onto a shared axis.
type Recorder struct {
	mu   sync.Mutex
	recs []flightRec
	next int
	full bool
	// droppedEvents / droppedProv count what evicted records would
	// have dumped (a stolen chunk dumps two events).
	droppedEvents int64
	droppedProv   int64

	subSeq atomic.Int64

	anomMu  sync.Mutex
	anomaly *FlightDump
	anomSeq atomic.Int64
}

// flightRec is one ring slot, tagged with its submission: a chunk
// record (kind KindExec), or a phase mark or queue wait whose event
// fields are all a Prov's too (Step, Proc, Lo, Hi, Start, End).
type flightRec struct {
	sub  int64
	kind telemetry.Kind
	p    telemetry.Prov
}

func newRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{recs: make([]flightRec, capacity)}
}

// submissionObserver is one submission's view of the plane
// (Plane.Observer): chunk records feed the collector, and chunk
// records, phase marks and contended queue waits land in the flight
// recorder tagged with its slot. A steal is its chunk's record.
type submissionObserver struct {
	col *Collector
	rec *Recorder
	sub int64
}

func (o *submissionObserver) Phase(m telemetry.PhaseMark) { o.addEvent(m.Event()) }

func (o *submissionObserver) Chunk(p telemetry.Prov) {
	o.col.chunk(p)
	o.rec.add(flightRec{o.sub, telemetry.KindExec, p})
}

func (o *submissionObserver) Dispatch(e telemetry.Event) {
	if e.Kind == telemetry.KindQueueWait && e.Notable() {
		o.addEvent(e)
	}
}

func (o *submissionObserver) addEvent(e telemetry.Event) {
	o.rec.add(flightRec{o.sub, e.Kind, telemetry.Prov{Step: e.Step, Proc: e.Proc, Lo: e.Lo, Hi: e.Hi, Start: e.Start, End: e.End}})
}

func (r *Recorder) add(fr flightRec) {
	r.mu.Lock()
	if old := &r.recs[r.next]; r.full {
		r.droppedEvents++
		if old.kind == telemetry.KindExec {
			r.droppedProv++
			if old.p.Stolen {
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
	// Events and Prov are in capture order with rebased Step/Start/End.
	Events []telemetry.Event `json:"events"`
	Prov   []telemetry.Prov  `json:"prov,omitempty"`
}

// Dump freezes the ring into one coherent stream. Submissions number
// their phases from 0 and their clocks from their own start, so the
// dump shifts each captured submission onto a shared axis: submission
// g's steps land after all of g-1's steps and its clock starts where
// g-1's last record ended. Every chunk record yields its steal event
// (when stolen), its exec event and its Prov, so each exec event in a
// dump has its Prov.
func (r *Recorder) Dump(reason string) *FlightDump {
	r.mu.Lock()
	recs := ringOrder(r.recs, r.next, r.full)
	d := &FlightDump{Reason: reason, DroppedEvents: r.droppedEvents, DroppedProv: r.droppedProv}
	r.mu.Unlock()

	// One pass over the ring establishes each submission's step and
	// time offsets, in arrival order (the engine serialises
	// submissions, so each one's records are contiguous).
	type offsets struct {
		step    int
		time    float64
		maxStep int
		maxEnd  float64
	}
	subOff := map[int64]*offsets{}
	stepOff, timeOff := 0, 0.0
	var cur *offsets
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
		if fr.p.Step > o.maxStep {
			o.maxStep = fr.p.Step
		}
		if fr.p.End > o.maxEnd {
			o.maxEnd = fr.p.End
		}
	}
	d.Submissions = len(subOff)

	d.Events = make([]telemetry.Event, 0, len(recs))
	for _, fr := range recs {
		o := subOff[fr.sub]
		fr.p.Step += o.step
		fr.p.Start += o.time
		fr.p.End += o.time
		if fr.kind != telemetry.KindExec {
			e := fr.p.ExecEvent()
			e.Kind = fr.kind
			d.Events = append(d.Events, e)
			continue
		}
		if fr.p.Stolen {
			d.Events = append(d.Events, fr.p.StealEvent())
		}
		d.Events = append(d.Events, fr.p.ExecEvent())
		d.Prov = append(d.Prov, fr.p)
	}
	return d
}

// ringOrder returns the ring's contents oldest-first.
func ringOrder[T any](ring []T, next int, full bool) []T {
	if !full {
		return append([]T(nil), ring[:next]...)
	}
	out := make([]T, 0, len(ring))
	out = append(out, ring[next:]...)
	return append(out, ring[:next]...)
}

// Consistent trims the dump to fully captured program steps — those
// whose phase-begin and phase-end events both survived eviction — and
// returns the matching events and provenance records. The ring evicts
// oldest-first and a step's phase-begin precedes all of its work, so a
// surviving begin implies the whole step survived; the trimmed stream
// therefore satisfies telemetry.Check's coverage invariant, holds one
// Prov per exec event, and is safe to feed to forensics or tracecheck.
func (d *FlightDump) Consistent() ([]telemetry.Event, []telemetry.Prov) {
	begin := map[int]bool{}
	end := map[int]bool{}
	for _, e := range d.Events {
		switch e.Kind {
		case telemetry.KindPhaseBegin:
			begin[e.Step] = true
		case telemetry.KindPhaseEnd:
			end[e.Step] = true
		}
	}
	keep := func(s int) bool { return begin[s] && end[s] }
	var evs []telemetry.Event
	for _, e := range d.Events {
		if keep(e.Step) {
			evs = append(evs, e)
		}
	}
	var pvs []telemetry.Prov
	for _, p := range d.Prov {
		if keep(p.Step) {
			pvs = append(pvs, p)
		}
	}
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
