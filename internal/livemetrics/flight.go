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
	subSeq atomic.Int64 // the last submission number handed out

	// mu guards every field below.
	mu   sync.Mutex
	recs []flightRec
	next int
	full bool
	// droppedEvents / droppedProv count what evicted slots would have
	// dumped (a chunk record dumps its exec and any dispatch event).
	droppedEvents int64
	droppedProv   int64
	anomaly       *FlightDump
	anomSeq       int64
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

// bufRecords is the most records a worker buffers before it folds
// them into the plane itself, so a long phase (a one-phase
// self-scheduled loop over a large N) holds bounded memory and the
// live series lag it by at most this many records per worker.
const bufRecords = 256

// workerBuf is one worker's chunk records of the current phase. Only
// that worker appends to it; the phase barrier orders its appends
// before the fold. Padded so neighbouring workers' buffers don't
// share a cache line.
type workerBuf struct {
	recs []telemetry.Prov
	_    [5]uint64
}

// submissionObserver is one submission's view of the plane
// (Plane.Observer). Chunk appends the record to its worker's buffer:
// no lock, atomic or clock read. A begin mark goes into the flight
// ring at once, so a step's begin precedes its records there; the
// barrier mark folds every worker's buffer into the plane
// (Plane.fold). Core sends the barrier mark after the phase's
// workers have all finished, on the cancel and panic paths too.
type submissionObserver struct {
	plane *Plane
	procs int
	sub   int64
	bufs  []workerBuf // held from a begin mark to its barrier mark
}

func (o *submissionObserver) Phase(m telemetry.PhaseMark) {
	p := o.plane
	if !m.Barrier {
		if o.bufs == nil {
			o.bufs = p.takeBufs(o.procs)
		}
		p.rec.add(o.sub, nil, &m)
		return
	}
	p.fold(o.sub, o.bufs, &m)
	if o.bufs != nil {
		p.putBufs(o.bufs)
		o.bufs = nil
	}
}

func (o *submissionObserver) Chunk(r telemetry.Prov) {
	if r.Proc < 0 || r.Proc >= len(o.bufs) { // outside a phase or its workers: fold at once
		o.plane.fold(o.sub, []workerBuf{{recs: []telemetry.Prov{r}}}, nil)
		return
	}
	b := &o.bufs[r.Proc]
	b.recs = append(b.recs, r)
	if len(b.recs) == bufRecords {
		o.plane.fold(o.sub, o.bufs[r.Proc:r.Proc+1], nil)
	}
}

// add appends one submission's buffered records and then the mark m,
// if any, to the ring, under one lock.
func (r *Recorder) add(sub int64, bufs []workerBuf, m *telemetry.PhaseMark) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range bufs {
		for j := range bufs[i].recs {
			r.push(flightRec{sub: sub, p: bufs[i].recs[j]})
		}
	}
	if m != nil {
		r.push(flightRec{sub: sub, mark: true, barrier: m.Barrier,
			p: telemetry.Prov{Step: m.Step, Hi: m.N, Start: m.Start, End: m.End}})
	}
}

// push writes one slot over the oldest; the caller holds mu.
func (r *Recorder) push(fr flightRec) {
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
// dump shifts each captured submission onto a shared axis, in order of
// its first slot in the ring: submission g's steps land after all of
// g-1's steps and its clock starts where g-1's last slot ended. The
// submissions of executors that share a plane run at once and
// interleave in the ring, so each one's full step and time extent is
// taken before any offset is assigned. The rebased marks and records
// are then lowered by telemetry.Lower, so every exec event in a dump
// has its Prov, and a stolen chunk's steal and a contended
// central-queue wait ([Start-QueueWait, Start]) are derived from its
// record.
func (r *Recorder) Dump(reason string) *FlightDump {
	r.mu.Lock()
	older := r.recs[r.next:] // oldest first, once the ring has wrapped
	if !r.full {
		older = nil
	}
	recs := slices.Concat(older, r.recs[:r.next])
	d := &FlightDump{Reason: reason, DroppedEvents: r.droppedEvents, DroppedProv: r.droppedProv}
	r.mu.Unlock()

	type offsets struct {
		step, maxStep int
		time, maxEnd  float64
	}
	subOff := map[int64]*offsets{}
	var order []*offsets
	for _, fr := range recs {
		o := subOff[fr.sub]
		if o == nil {
			o = &offsets{}
			subOff[fr.sub] = o
			order = append(order, o)
		}
		o.maxStep, o.maxEnd = max(o.maxStep, fr.p.Step), max(o.maxEnd, fr.p.End)
	}
	stepOff, timeOff := 0, 0.0
	for _, o := range order {
		o.step, o.time = stepOff, timeOff
		stepOff += o.maxStep + 1
		timeOff += o.maxEnd
	}
	var marks []telemetry.PhaseMark
	prov := make([]telemetry.Prov, 0, len(recs))
	for _, fr := range recs {
		o, p := subOff[fr.sub], fr.p
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
	r.mu.Lock()
	defer r.mu.Unlock()
	r.anomaly = d
	r.anomSeq++
}

// AnomalySeq counts anomaly dumps taken since creation — the
// monotonic edge the watchdog's flight-freeze trigger watches, so a
// panic or cancellation that froze the ring also produces a
// diagnostic bundle.
func (r *Recorder) AnomalySeq() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.anomSeq
}

// Anomaly returns the most recent anomaly dump, or nil.
func (r *Recorder) Anomaly() *FlightDump {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.anomaly
}
