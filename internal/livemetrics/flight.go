package livemetrics

import (
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Recorder is the bounded flight recorder: fixed-size rings of the
// most recent telemetry events and provenance records across
// submissions, so the last moments before an anomaly are always
// recoverable without paying full-trace memory. Each submission's
// observer (Plane.Observer) records into its own slot; Dump merges the
// rings into one coherent stream by rebasing every submission's
// step numbers and zero-based clocks onto a shared axis.
type Recorder struct {
	mu        sync.Mutex
	evs       []flightEv
	evNext    int
	evFull    bool
	evDropped int64
	pvs       []flightPv
	pvNext    int
	pvFull    bool
	pvDropped int64

	subSeq atomic.Int64

	anomMu  sync.Mutex
	anomaly *FlightDump
	anomSeq atomic.Int64
}

type flightEv struct {
	sub int64
	e   telemetry.Event
}

type flightPv struct {
	sub int64
	p   telemetry.Prov
}

func newRecorder(evCap, pvCap int) *Recorder {
	if evCap < 1 {
		evCap = 1
	}
	if pvCap < 1 {
		pvCap = 1
	}
	return &Recorder{evs: make([]flightEv, evCap), pvs: make([]flightPv, pvCap)}
}

// submissionObserver is one submission's view of the plane
// (Plane.Observer): chunk and steal records feed the collector, and
// the submission's event and provenance streams — the ones
// telemetry.ObserveEvents and ObserveProv would produce — land in the
// flight recorder tagged with its slot.
type submissionObserver struct {
	col *Collector
	rec *Recorder
	sub int64
}

func (o *submissionObserver) Phase(m telemetry.PhaseMark) { o.rec.addEvent(o.sub, m.Event()) }

func (o *submissionObserver) Chunk(p telemetry.Prov) {
	o.col.chunk(p)
	o.rec.addEvent(o.sub, p.ExecEvent())
	o.rec.addProv(o.sub, p)
}

func (o *submissionObserver) Dispatch(e telemetry.Event) {
	if e.Kind == telemetry.KindSteal {
		o.col.steal(e)
	}
	if e.Notable() {
		o.rec.addEvent(o.sub, e)
	}
}

func (r *Recorder) addEvent(sub int64, e telemetry.Event) {
	r.mu.Lock()
	if r.evFull {
		r.evDropped++
	}
	r.evs[r.evNext] = flightEv{sub, e}
	r.evNext++
	if r.evNext == len(r.evs) {
		r.evNext = 0
		r.evFull = true
	}
	r.mu.Unlock()
}

func (r *Recorder) addProv(sub int64, p telemetry.Prov) {
	r.mu.Lock()
	if r.pvFull {
		r.pvDropped++
	}
	r.pvs[r.pvNext] = flightPv{sub, p}
	r.pvNext++
	if r.pvNext == len(r.pvs) {
		r.pvNext = 0
		r.pvFull = true
	}
	r.mu.Unlock()
}

// Dropped reports how many records each ring has evicted since
// creation.
func (r *Recorder) Dropped() (events, prov int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evDropped, r.pvDropped
}

// FlightDump is one frozen capture of the rings, rebased onto a single
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

// Dump freezes the rings into one coherent stream. Submissions number
// their phases from 0 and their clocks from their own start, so the
// dump shifts each captured submission onto a shared axis: submission
// g's steps land after all of g-1's steps and its clock starts where
// g-1's last event ended. Provenance records reuse the offsets derived
// from the event ring; records of submissions whose events were all
// evicted are omitted (their axis position is unknowable).
func (r *Recorder) Dump(reason string) *FlightDump {
	r.mu.Lock()
	evs := ringOrder(r.evs, r.evNext, r.evFull)
	pvs := ringOrder(r.pvs, r.pvNext, r.pvFull)
	d := &FlightDump{Reason: reason, DroppedEvents: r.evDropped, DroppedProv: r.pvDropped}
	r.mu.Unlock()

	// One pass over the event ring establishes each submission's step
	// and time offsets, in arrival order (the engine serialises
	// submissions, so each one's events are contiguous).
	type offsets struct {
		step    int
		time    float64
		maxStep int
		maxEnd  float64
	}
	subOff := map[int64]*offsets{}
	var order []int64
	stepOff, timeOff := 0, 0.0
	var cur *offsets
	for _, fe := range evs {
		o, ok := subOff[fe.sub]
		if !ok {
			if cur != nil {
				stepOff += cur.maxStep + 1
				timeOff += cur.maxEnd
			}
			o = &offsets{step: stepOff, time: timeOff}
			subOff[fe.sub] = o
			order = append(order, fe.sub)
			cur = o
		}
		if fe.e.Step > o.maxStep {
			o.maxStep = fe.e.Step
		}
		if fe.e.End > o.maxEnd {
			o.maxEnd = fe.e.End
		}
	}
	d.Submissions = len(order)

	d.Events = make([]telemetry.Event, 0, len(evs))
	for _, fe := range evs {
		o := subOff[fe.sub]
		e := fe.e
		e.Step += o.step
		e.Start += o.time
		e.End += o.time
		d.Events = append(d.Events, e)
	}
	for _, fp := range pvs {
		o, ok := subOff[fp.sub]
		if !ok {
			continue
		}
		p := fp.p
		p.Step += o.step
		p.Start += o.time
		p.End += o.time
		d.Prov = append(d.Prov, p)
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
// therefore satisfies telemetry.Check's coverage invariant and is safe
// to feed to forensics or tracecheck.
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

// NoteAnomaly freezes the rings under the given reason and stores the
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
// panic or cancellation that froze the rings also produces a
// diagnostic bundle.
func (r *Recorder) AnomalySeq() int64 { return r.anomSeq.Load() }

// Anomaly returns the most recent anomaly dump, or nil.
func (r *Recorder) Anomaly() *FlightDump {
	r.anomMu.Lock()
	defer r.anomMu.Unlock()
	return r.anomaly
}
