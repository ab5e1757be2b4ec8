// Package spantrace is the causal tracing layer for the execution
// engine: every submission is kept as its chunk records
// (telemetry.Prov) and phase marks, viewed as a span tree — one
// submission root, one span per phase, per executed chunk and per
// steal — with parent/child and steals-from causal links, so a
// tail-latency exemplar surfaced by the live plane
// (internal/livemetrics) resolves to the exact dispatch history that
// produced it. Trace.Telemetry lowers the records as the flight
// recorder does, through telemetry.Lower.
//
// An *Active satisfies core.Observer (telemetry.Observer)
// structurally, so core never imports this package. The hot path is
// allocation- and lock-free: each worker goroutine appends to its own
// record buffer (single writer;
// the phase barrier publishes the writes before End merges them),
// pre-grown by earlier submissions, and the only shared mutable state
// is an atomic drop counter. The simulator takes the same observer, so
// its traces are bit-identical across runs at a fixed seed.
package spantrace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Kind classifies one span.
type Kind uint8

const (
	// KindSubmission is the root span covering the whole submission.
	KindSubmission Kind = iota
	// KindPhase covers one barrier-separated phase.
	KindPhase
	// KindChunk covers one executed chunk's loop-body window.
	KindChunk
	// KindSteal covers one successful steal operation (victim lock
	// acquisition through chunk removal).
	KindSteal
)

var kindNames = [...]string{"submission", "phase", "chunk", "steal"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON renders the kind as its name, so exported trees are
// readable and byte-stable.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts the name form written by MarshalJSON.
func (k *Kind) UnmarshalJSON(b []byte) error {
	s := string(b)
	for i, n := range kindNames {
		if s == `"`+n+`"` {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("spantrace: unknown span kind %s", s)
}

// Span is one node of a submission's span tree. Timestamps are
// nanoseconds on the runner's telemetry clock (ns since the submission
// started; simulated cycles on the sim substrate).
type Span struct {
	// ID is unique within the trace and deterministic for a fixed
	// schedule: the root is 1, phase ph is 2+ph, and worker w's i-th
	// span is (w+1)<<20 + i, a stolen chunk's steal span just before
	// its chunk span.
	ID uint64 `json:"id"`
	// Parent is the enclosing span's ID (0 for the root). Chunk and
	// steal spans parent to their phase span.
	Parent uint64 `json:"parent,omitempty"`
	Kind   Kind   `json:"kind"`
	// Phase is the phase index the span belongs to (-1 for the root).
	Phase int `json:"phase"`
	// Proc is the worker that produced the span (-1 for root/phase).
	Proc int `json:"proc"`
	// Owner is the owning queue for chunk spans (-1 for central
	// dispensers) and the victim for steal spans.
	Owner int `json:"owner"`
	// Stolen marks a chunk span whose iterations migrated.
	Stolen bool `json:"stolen,omitempty"`
	// StealsFrom links a stolen chunk span to the steal span that moved
	// its iterations — the causal edge across workers.
	StealsFrom uint64 `json:"steals_from,omitempty"`
	// Lo/Hi is the iteration range [Lo, Hi) (0/0 for root and phase
	// spans; Hi carries the phase's iteration count on phase spans).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Start/End bound the span on the telemetry clock.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Trace is one sealed submission: its chunk records and phase marks,
// plus the header below. Its span tree is the view Spans builds, and
// its JSON form is the header with that tree.
type Trace struct {
	// TraceID identifies the trace within its Tracer; exemplars in the
	// live plane carry it so /metrics tails resolve to span trees.
	TraceID uint64 `json:"trace_id"`
	// Label is free-form submission metadata (scheduler, shape).
	Label string `json:"label,omitempty"`
	// Scheduler is the sched.Spec name the submission ran under.
	Scheduler string `json:"scheduler,omitempty"`
	Procs     int    `json:"procs"`
	Phases    int    `json:"phases"`
	// Outcome is "ok", "cancelled" or "panicked".
	Outcome string `json:"outcome"`
	// DurationNS is the root span's extent on the telemetry clock.
	DurationNS float64 `json:"duration_ns"`
	// Dropped counts spans discarded at the per-trace cap.
	Dropped int64 `json:"dropped,omitempty"`

	marks  []telemetry.PhaseMark
	recs   []telemetry.Prov // worker-major, each worker's in its order
	steals int              // stolen records
}

// Chunks counts the trace's chunk spans: one per record.
func (t *Trace) Chunks() int { return len(t.recs) }

// Steals counts the trace's steal spans: one per stolen record.
func (t *Trace) Steals() int { return t.steals }

// Telemetry returns the trace's events and records, lowered from its
// phase marks and unchanged chunk records by telemetry.Lower in the
// substrate's time unit, so a single submission's trace feeds the
// forensics attribution pipeline (loopdoctor trace) exactly as the
// flight recorder's dump does.
func (t *Trace) Telemetry(unit string) ([]telemetry.Event, []telemetry.Prov) {
	return telemetry.Lower(t.marks, slices.Clone(t.recs), unit)
}

// Spans builds the span tree: the root, one span per phase, and per
// chunk record one chunk span, preceded by a steal span over
// [Start-QueueWait, Start] when the chunk was stolen. Spans[0] is the
// root; the rest are sorted by (Start, ID).
func (t *Trace) Spans() []Span {
	spans := make([]Span, 1, 1+t.Phases+len(t.recs)+t.Steals())
	spans[0] = Span{ID: 1, Kind: KindSubmission, Phase: -1, Proc: -1, Owner: -1, End: t.DurationNS}
	for _, m := range t.marks {
		if m.Barrier {
			spans = append(spans, Span{ID: phaseSpanID(m.Step), Parent: 1, Kind: KindPhase,
				Phase: m.Step, Proc: -1, Owner: -1, Hi: m.N, Start: m.Start, End: m.End})
		}
	}
	next := make([]int, t.Procs) // each worker's next span index
	for _, p := range t.recs {
		var from uint64
		if p.Stolen {
			from = spanID(p.Proc, next[p.Proc])
			next[p.Proc]++
			spans = append(spans, Span{ID: from, Parent: phaseSpanID(p.Step), Kind: KindSteal,
				Phase: p.Step, Proc: p.Proc, Owner: p.Owner,
				Lo: p.Lo, Hi: p.Hi, Start: p.Start - p.QueueWait, End: p.Start})
		}
		spans = append(spans, Span{ID: spanID(p.Proc, next[p.Proc]), Parent: phaseSpanID(p.Step), Kind: KindChunk,
			Phase: p.Step, Proc: p.Proc, Owner: p.Owner, Stolen: p.Stolen, StealsFrom: from,
			Lo: p.Lo, Hi: p.Hi, Start: p.Start, End: p.End})
		next[p.Proc]++
	}
	// Deterministic presentation order: by start time, span ID breaking
	// ties (IDs themselves are schedule-deterministic).
	slices.SortFunc(spans[1:], func(x, y Span) int {
		return cmp.Or(cmp.Compare(x.Start, y.Start), cmp.Compare(x.ID, y.ID))
	})
	return spans
}

// MarshalJSON renders the header and the span tree (Spans).
func (t *Trace) MarshalJSON() ([]byte, error) {
	type header Trace // without methods, so the embedding below does not recurse
	return json.Marshal(struct {
		*header
		Spans []Span `json:"spans"`
	}{(*header)(t), t.Spans()})
}

// Options sizes a Tracer. The zero value gives usable defaults.
type Options struct {
	// MaxSpans caps one trace's span count (default 16384); further
	// observations increment Trace.Dropped instead of growing the tree.
	// The cap is split evenly across workers, so one runaway worker
	// cannot evict the others' spans, and a stolen chunk (a steal and a
	// chunk span) is kept or dropped whole.
	MaxSpans int
	// Store caps the completed traces retained for lookup (default 64,
	// evicted oldest-first). Pinned traces outlive their eviction.
	Store int
}

func (o Options) withDefaults() Options {
	if o.MaxSpans <= 0 {
		o.MaxSpans = 16384
	}
	if o.Store <= 0 {
		o.Store = 64
	}
	return o
}

// Tracer mints trace IDs and retains a bounded ring of completed
// traces, keyed for lookup by loopdoctor trace / the HTTP trace
// endpoints, plus any pinned trace the ring has evicted. Safe for
// concurrent use.
type Tracer struct {
	opts Options
	seq  atomic.Uint64

	mu    sync.Mutex
	order []uint64 // ring, insertion order, oldest first
	byID  map[uint64]*Trace
	// pinned holds the pinned IDs; the value turns true once the ring
	// has evicted the trace, so only the pin keeps it in byID.
	pinned  map[uint64]bool
	evicted int64
	// free holds the emptied worker record buffers that End and
	// Abandon hand back, so later submissions append into grown slices.
	free [][]telemetry.Prov
}

// NewTracer creates a tracer.
func NewTracer(opts Options) *Tracer {
	o := opts.withDefaults()
	return &Tracer{opts: o, byID: make(map[uint64]*Trace, o.Store), pinned: make(map[uint64]bool)}
}

// SubmissionInfo labels a starting submission.
type SubmissionInfo struct {
	Label     string
	Scheduler string
	Procs     int
	Phases    int
}

// StartSubmission opens a record collection for one submission. The
// returned Active satisfies core.Observer structurally; wire it into
// the submission's observer, then seal with End (storing the trace)
// or discard with Abandon. Every Start must be paired with exactly one
// End or Abandon on every return path (enforced by schedlint's
// telemetry span-balance rule in core and pool).
func (t *Tracer) StartSubmission(info SubmissionInfo) *Active {
	procs := info.Procs
	if procs < 1 {
		procs = 1
	}
	per := t.opts.MaxSpans / procs
	if per < 1 {
		per = 1
	}
	a := &Active{
		tracer:       t,
		id:           t.seq.Add(1),
		info:         info,
		procs:        procs,
		maxPerWorker: per,
		workers:      make([]workerBuf, procs),
	}
	t.mu.Lock()
	for w := range a.workers {
		n := len(t.free)
		if n == 0 {
			break
		}
		a.workers[w].recs, t.free = t.free[n-1], t.free[:n-1]
	}
	t.mu.Unlock()
	return a
}

// Get returns the completed trace with the given ID, or nil if it was
// never recorded or has been evicted.
func (t *Tracer) Get(id uint64) *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

// Traces lists the retained completed traces, newest first.
func (t *Tracer) Traces() []*Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, 0, len(t.order))
	for i := len(t.order) - 1; i >= 0; i-- {
		out = append(out, t.byID[t.order[i]])
	}
	return out
}

// Pin keeps trace id resolvable by Get after the ring evicts it, until
// Unpin. The live plane pins the traces its latency exemplars name, so
// an exemplar resolves for as long as it is reported, however many
// submissions pass meanwhile. A nil tracer ignores pins.
func (t *Tracer) Pin(id uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.pinned[id]; !ok {
		t.pinned[id] = false
	}
}

// Unpin releases a Pin, dropping the trace at once if the ring has
// already evicted it.
func (t *Tracer) Unpin(id uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pinned[id] {
		delete(t.byID, id)
		t.evicted++
	}
	delete(t.pinned, id)
}

// Evicted counts traces dropped from the store since creation.
func (t *Tracer) Evicted() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

func (t *Tracer) store(tr *Trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.order = append(t.order, tr.TraceID)
	t.byID[tr.TraceID] = tr
	for len(t.order) > t.opts.Store {
		old := t.order[0]
		t.order = t.order[1:]
		if _, ok := t.pinned[old]; ok {
			t.pinned[old] = true
			continue
		}
		delete(t.byID, old)
		t.evicted++
	}
}

// workerBuf is one worker's private record buffer. Only worker w's
// goroutine touches workers[w] during execution; the phase barrier
// orders those writes before End's merge. Padded so neighbouring
// workers don't share a cache line.
type workerBuf struct {
	recs  []telemetry.Prov
	spans int // the span view's size of recs: a stolen chunk is two
	_     [4]uint64
}

// Active is one in-flight submission's record collection. Phase and
// Chunk are its core.Observer methods (Chunk called inline from
// workers); End and Abandon seal it. An Active must not be reused
// after End or Abandon.
type Active struct {
	tracer       *Tracer
	id           uint64
	info         SubmissionInfo
	procs        int
	maxPerWorker int
	workers      []workerBuf
	marks        []telemetry.PhaseMark // appended only by the submitting goroutine
	dropped      atomic.Int64
}

const workerIDBase = uint64(1) << 20

// phaseSpanID is the deterministic ID for phase ph's span.
func phaseSpanID(ph int) uint64 { return uint64(2 + ph) }

// spanID is worker w's i-th span ID. Worker blocks start at 1<<20, so
// phase IDs (2+ph) never collide for any realistic phase count.
func spanID(w, i int) uint64 { return uint64(w+1)*workerIDBase + uint64(i) }

// Phase keeps phase mark m. Called by the submitting goroutine. A
// phase is a begin and a barrier mark, and its span is the barrier's,
// so MaxSpans phases fill the cap.
func (a *Active) Phase(m telemetry.PhaseMark) {
	if len(a.marks) >= 2*a.tracer.opts.MaxSpans {
		if m.Barrier {
			a.dropped.Add(1)
		}
		return
	}
	a.marks = append(a.marks, m)
}

// Chunk keeps one executed chunk's record in worker p.Proc's buffer,
// or counts its spans dropped at the per-worker cap. Called inline
// from that worker's goroutine.
func (a *Active) Chunk(p telemetry.Prov) {
	n := 1
	if p.Stolen {
		n = 2 // its steal span and its chunk span
	}
	if p.Proc < 0 || p.Proc >= len(a.workers) || a.workers[p.Proc].spans+n > a.maxPerWorker {
		a.dropped.Add(int64(n))
		return
	}
	w := &a.workers[p.Proc]
	w.spans += n
	w.recs = append(w.recs, p)
}

// End seals the collection into a Trace, stores it in the tracer, and
// returns it. outcome is "ok", "cancelled" or "panicked". Must be
// called after the submission's barrier has drained (internal/pool
// calls it after Engine.Execute returns), so every worker buffer is
// quiescent and happens-before-ordered with this goroutine.
func (a *Active) End(outcome string) *Trace {
	tr := a.seal(outcome)
	a.tracer.store(tr)
	a.release()
	return tr
}

// Abandon discards the collection without storing a trace — the
// close path for submissions that were never executed (e.g. rejected
// by a closed engine).
func (a *Active) Abandon() { a.release() }

// release hands the worker record buffers back to the tracer, emptied:
// End has already copied their records into the Trace, and an
// abandoned collection keeps none.
func (a *Active) release() {
	t := a.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	for w := range a.workers {
		if r := a.workers[w].recs; cap(r) > 0 {
			t.free = append(t.free, r[:0])
		}
		a.workers[w] = workerBuf{}
	}
}

func (a *Active) seal(outcome string) *Trace {
	total := 0
	for w := range a.workers {
		total += len(a.workers[w].recs)
	}
	recs := make([]telemetry.Prov, 0, total)
	for w := range a.workers {
		recs = append(recs, a.workers[w].recs...)
	}
	phases := 0
	var maxEnd float64
	for _, m := range a.marks {
		if m.Barrier {
			phases++
			maxEnd = max(maxEnd, m.End)
		}
	}
	steals := 0
	for _, p := range recs {
		maxEnd = max(maxEnd, p.End)
		if p.Stolen {
			steals++
		}
	}
	return &Trace{
		TraceID:    a.id,
		Label:      a.info.Label,
		Scheduler:  a.info.Scheduler,
		Procs:      a.procs,
		Phases:     phases,
		Outcome:    outcome,
		DurationNS: maxEnd,
		Dropped:    a.dropped.Load(),
		marks:      a.marks,
		recs:       recs,
		steals:     steals,
	}
}
