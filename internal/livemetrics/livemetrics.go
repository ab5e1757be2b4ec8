// Package livemetrics is the live observability plane for the
// persistent execution engine: rolling instruments fed by the
// runtime's observer (core.Config.Observer), a bounded flight recorder
// of recent telemetry, and an HTTP introspection surface (see http.go
// and cmd/loopserved). A worker pays one append per chunk: each
// submission's observer buffers its chunk records per worker and folds
// them into the plane once per phase, under one lock.
//
// The paper's claim — affinity scheduling wins because cache-reload
// cost dominates as loops repeat — is otherwise only visible post-hoc
// through exported traces. This package surfaces the same signals
// continuously: per-worker affinity-hit ratio against the ⌈N/P⌉
// sched.Static owner map, steal rates, queue depths, and windowed
// latency quantiles, all while the engine keeps running.
//
// Layering: the per-submission observer (Plane.Observer) satisfies
// core.Observer (telemetry.Observer) structurally, so core never
// imports this package. internal/pool binds a Plane to its engine and
// feeds submission outcomes; repro exposes the whole thing as
// WithObservability.
package livemetrics

import (
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/spantrace"
	"repro/internal/telemetry"
)

// Options sizes the plane's instruments. The zero value gives usable
// defaults (10s window, 4096-record flight ring).
type Options struct {
	// Window is the span the rolling latency quantiles describe.
	Window time.Duration
	// FlightEvents caps the flight recorder's ring of slots: one per
	// chunk record and phase mark. A chunk dumps as its exec event
	// plus, when stolen, its steal event, or, after a contended
	// central-queue wait, that wait (telemetry.Lower).
	FlightEvents int
}

const (
	// windowSlots divides Window into ring slots; more slots age old
	// load out more smoothly at slightly more merge work per query.
	windowSlots = 10
	// sampleEvery is the shortest interval the per-worker rate gauges
	// (utilization, steal rate) average over: a read refreshes them
	// only once at least this long has passed since the last refresh.
	sampleEvery = 250 * time.Millisecond
)

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 10 * time.Second
	}
	if o.FlightEvents <= 0 {
		o.FlightEvents = 4096
	}
	return o
}

// latencyBounds is the shared bucket layout for all rolling
// histograms: 1ns to ~2min with factor-1.5 growth, so quantile
// estimates carry at most one bucket (≲±25% relative) of error across
// chunk, steal and submission latencies alike.
var latencyBounds = telemetry.ExpBuckets(1, 1.5, 64)

// Outcome classifies one submission for the plane's counters.
type Outcome int

const (
	// OutcomeOK is a submission that ran to completion.
	OutcomeOK Outcome = iota
	// OutcomeCancelled is a submission stopped by its context.
	OutcomeCancelled
	// OutcomePanicked is a submission whose loop body panicked.
	OutcomePanicked
)

// AdmitOutcome classifies one admission decision at the serving layer
// (internal/serve): what happened to a job between arriving at the
// front door and being handed to an executor shard.
type AdmitOutcome int

const (
	// AdmitAdmitted is a job that passed quota + queue admission and
	// was dispatched (or queued for dispatch).
	AdmitAdmitted AdmitOutcome = iota
	// AdmitShed is a job refused by overload protection — token-bucket
	// quota exhausted or the bounded queue full (HTTP 429).
	AdmitShed
	// AdmitRejected is a job refused as invalid or unservable (bad
	// spec, unknown kernel, server closing; HTTP 4xx/503).
	AdmitRejected
)

// Plane is one engine's live observability surface. Create with New,
// bind to executors via internal/pool (or repro.WithObservability) and
// scrape with Snapshot or the HTTP handler. A plane starts no
// goroutine: its rate gauges refresh when a scrape reads them, so
// there is nothing to stop.
type Plane struct {
	opts Options
	t0   time.Time
	rec  *Recorder

	// mu guards every field below. It is taken once per phase of an
	// observed submission (the fold), once per submission and
	// admission decision, and once per scrape — never per chunk.
	mu       sync.Mutex
	counters Counters
	// workers holds one row per worker index seen, sized exactly to
	// the highest: every row becomes a worker in Snapshot (and a
	// per-worker series in /metrics.prom), so it never over-allocates.
	workers   []workerTotals
	chunkHist *rollingHist
	stealHist *rollingHist
	subHist   *rollingHist
	// exemplars retains the slowest traced submissions per latency
	// bucket, so /metrics tail quantiles resolve to span trees.
	exemplars *exemplarStore
	// tracer, when set, is the span tracer whose trace IDs the
	// exemplars reference; the HTTP handler serves /trace and /traces
	// from it.
	tracer *spantrace.Tracer
	// Admission instruments (serving layer): windowed queue-wait
	// latency plus per-tenant decision totals, whose sums are the
	// global totals. Touched only when a serving frontend calls
	// ObserveAdmission, so a plane bound to a bare executor snapshots
	// exactly as before.
	admitHist *rollingHist
	tenants   map[string]*TenantSnapshot
	// sources are the bound executors' engines: every open one the
	// plane observes, each a live queue-depth source with a worker
	// count. Bind appends; Unbind replaces the slice.
	sources []Source
	// rates are the per-worker rate gauges, refreshed from the totals
	// in prev, taken at prevAt.
	rates  []workerRates
	prev   []workerTotals
	prevAt time.Time
	// free holds emptied per-worker record buffer sets, so later
	// submissions append into grown slices.
	free [][]workerBuf
}

// Source is one bound engine (core.Engine satisfies it): a live
// per-queue backlog read and its worker count.
type Source interface {
	QueueDepths() []int
	Procs() int
}

// workerRates is one worker's rate gauges.
type workerRates struct {
	utilization float64
	stealRate   float64
}

// workerTotals is one worker's monotonic totals.
type workerTotals struct {
	chunks, iters, affinityHits, stolenExec, victimized, busyNS int64
}

// New creates a plane.
func New(opts Options) *Plane {
	o := opts.withDefaults()
	p := &Plane{
		opts:      o,
		t0:        time.Now(),
		rec:       newRecorder(o.FlightEvents),
		chunkHist: newRollingHist(int64(o.Window), windowSlots, latencyBounds),
		stealHist: newRollingHist(int64(o.Window), windowSlots, latencyBounds),
		subHist:   newRollingHist(int64(o.Window), windowSlots, latencyBounds),
		admitHist: newRollingHist(int64(o.Window), windowSlots, latencyBounds),
		exemplars: newExemplarStore(int64(o.Window), latencyBounds),
		tenants:   make(map[string]*TenantSnapshot),
	}
	p.prevAt = p.t0
	return p
}

// nowNS is the plane's monotonic clock (ns since New).
func (p *Plane) nowNS() int64 { return int64(time.Since(p.t0)) }

// Observer returns the observer (core.Observer) of one submission
// running on procs workers: it buffers each worker's chunk records and
// folds them into the plane's instruments and flight ring once per
// phase, tagged with a fresh flight-recorder submission number.
func (p *Plane) Observer(procs int) telemetry.Observer {
	return &submissionObserver{plane: p, procs: max(procs, 1), sub: p.rec.subSeq.Add(1)}
}

// Recorder returns the plane's flight recorder.
func (p *Plane) Recorder() *Recorder { return p.rec }

// Bind adds an engine to the plane's sources; binding one twice is a
// no-op. A plane shared by several executors (serve's shards) reports
// them all: Snapshot sums each queue index across the sources, as the
// per-worker counters already merge them by worker index.
func (p *Plane) Bind(src Source) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !slices.Contains(p.sources, src) {
		p.sources = append(p.sources, src)
	}
}

// Unbind removes an engine from the plane's sources: its executor has
// closed or detached the plane, so a plane outliving many executors
// neither reads nor retains their engines.
func (p *Plane) Unbind(src Source) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// A copy: Snapshot reads the old slice outside the lock.
	p.sources = slices.DeleteFunc(slices.Clone(p.sources), func(s Source) bool { return s == src })
}

// SetTracer attaches a span tracer: exemplar trace IDs reference its
// traces and the HTTP handler serves /trace and /traces from it. nil
// detaches.
func (p *Plane) SetTracer(t *spantrace.Tracer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tracer = t
}

// Tracer returns the attached span tracer, or nil.
func (p *Plane) Tracer() *spantrace.Tracer {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tracer
}

// ObserveSubmission records one finished submission: its wall latency
// and outcome. traceID, when non-zero, is the submission's span-trace
// ID; the plane retains it as a latency exemplar so tail quantiles
// link to the causal span tree. Anomalous outcomes (cancellation,
// panic) snapshot the flight recorder so the last moments before the
// anomaly stay recoverable; detail labels the snapshot.
func (p *Plane) ObserveSubmission(d time.Duration, outcome Outcome, detail string, traceID uint64) {
	p.mu.Lock()
	now := p.nowNS()
	p.counters.Submissions++
	p.subHist.observe(now, float64(d))
	p.exemplars.observe(now, float64(d), traceID, p.tracer)
	switch outcome {
	case OutcomeCancelled:
		p.counters.Cancellations++
	case OutcomePanicked:
		p.counters.Panics++
	default:
		p.counters.Completed++
	}
	p.mu.Unlock()
	switch outcome {
	case OutcomeCancelled:
		p.rec.NoteAnomaly("cancelled: " + detail)
	case OutcomePanicked:
		p.rec.NoteAnomaly("panic: " + detail)
	}
}

// tenant fetches (or creates) a tenant's counter row; the caller holds
// mu. "" maps to the default tenant so anonymous submissions still
// account somewhere.
func (p *Plane) tenant(name string) *TenantSnapshot {
	if name == "" {
		name = "default"
	}
	t := p.tenants[name]
	if t == nil {
		t = &TenantSnapshot{Tenant: name}
		p.tenants[name] = t
	}
	return t
}

// ObserveAdmission records one serving-layer admission decision for
// tenant: the time the job spent queued at the front door and the
// outcome. Only admitted jobs feed the wait histogram — a shed job is
// refused instantly, and mixing its zero wait in would flatter the
// very overload the p99 objective watches. Sustained shedding is the
// watchdog's job (the shed-surge rule on slo.MetricShedRate), which
// captures a diagnostic bundle rather than freezing the flight
// recorder on every refusal.
func (p *Plane) ObserveAdmission(tenantName string, wait time.Duration, outcome AdmitOutcome) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.tenant(tenantName)
	t.Submitted++
	switch outcome {
	case AdmitShed:
		t.Shed++
	case AdmitRejected:
		t.Rejected++
	default:
		t.Admitted++
		p.admitHist.observe(p.nowNS(), float64(wait))
	}
}

// ObserveTenantCompletion credits tenant with one job that finished
// executing (goodput, as opposed to merely being admitted).
func (p *Plane) ObserveTenantCompletion(tenantName string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tenant(tenantName).Completed++
}

// fold adds one submission's buffered chunk records to the plane's
// totals and histograms, all at one clock reading and under one lock,
// then appends them and the mark m, if any, to the flight ring and
// empties the buffers. A stolen chunk's record is also its steal's: it
// counts the migrated iterations, charges the victim (Owner) and
// observes the steal's latency (QueueWait). A hit is an un-stolen
// chunk executed by its owning worker (central dispensers report owner
// -1 and so never hit).
func (p *Plane) fold(sub int64, bufs []workerBuf, m *telemetry.PhaseMark) {
	now := p.nowNS()
	p.mu.Lock()
	for i := range bufs {
		for j := range bufs[i].recs {
			r := &bufs[i].recs[j]
			if r.Proc < 0 {
				continue
			}
			if n := max(r.Proc, r.Owner) + 1; n > len(p.workers) {
				p.workers = append(p.workers, make([]workerTotals, n-len(p.workers))...)
			}
			dur := r.End - r.Start
			p.counters.Chunks++
			p.chunkHist.observe(now, dur)
			w := &p.workers[r.Proc]
			w.chunks++
			w.iters += int64(r.Iters())
			w.busyNS += int64(dur)
			switch {
			case r.Stolen:
				w.stolenExec++
				p.counters.Steals++
				p.counters.MigratedIters += int64(r.Iters())
				p.stealHist.observe(now, r.QueueWait)
				if r.Owner >= 0 {
					p.workers[r.Owner].victimized++
				}
			case r.Owner == r.Proc:
				w.affinityHits++
			}
		}
	}
	p.mu.Unlock()
	p.rec.add(sub, bufs, m)
	for i := range bufs {
		bufs[i].recs = bufs[i].recs[:0]
	}
}

// takeBufs hands out a set of at least procs emptied worker buffers.
func (p *Plane) takeBufs(procs int) []workerBuf {
	p.mu.Lock()
	defer p.mu.Unlock()
	var bufs []workerBuf
	if n := len(p.free); n > 0 {
		bufs, p.free = p.free[n-1], p.free[:n-1]
	}
	if len(bufs) < procs {
		bufs = append(bufs, make([]workerBuf, procs-len(bufs))...)
	}
	return bufs
}

// putBufs takes back a set of emptied worker buffers.
func (p *Plane) putBufs(bufs []workerBuf) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, bufs)
}

// refreshGauges turns the per-worker monotonic totals into rate gauges
// (utilization = busy-ns/wall-ns, steal rate = chunks stolen from the
// worker per second) over the time since the last refresh, once at
// least sampleEvery has passed, and returns them. The caller holds mu;
// the returned slice is replaced, never written, by later refreshes.
func (p *Plane) refreshGauges(now time.Time) []workerRates {
	if wall := now.Sub(p.prevAt); wall >= sampleEvery {
		rates := make([]workerRates, len(p.workers))
		for w, t := range p.workers {
			var prev workerTotals
			if w < len(p.prev) {
				prev = p.prev[w]
			}
			rates[w] = workerRates{
				utilization: min(max(float64(t.busyNS-prev.busyNS)/float64(wall), 0), 1),
				stealRate:   float64(t.victimized-prev.victimized) / wall.Seconds(),
			}
		}
		p.rates, p.prev, p.prevAt = rates, slices.Clone(p.workers), now
	}
	return p.rates
}

// Snapshot JSON shapes. All latencies are nanoseconds.

// Quantiles is one instrument's windowed latency estimate.
type Quantiles struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50_ns"`
	P90   float64 `json:"p90_ns"`
	P99   float64 `json:"p99_ns"`
}

// Counters is the plane's monotonic totals since New.
type Counters struct {
	Submissions   int64 `json:"submissions"`
	Completed     int64 `json:"completed"`
	Cancellations int64 `json:"cancellations"`
	Panics        int64 `json:"panics"`
	Chunks        int64 `json:"chunks"`
	Steals        int64 `json:"steals"`
	MigratedIters int64 `json:"migrated_iters"`
}

// WorkerSnapshot is one worker's live view: monotonic totals, the
// paper's affinity-hit ratio (un-stolen chunks executed on their
// ⌈N/P⌉ static owner / all chunks the worker executed), sampled rate
// gauges, and current queue backlog.
type WorkerSnapshot struct {
	Worker           int     `json:"worker"`
	Chunks           int64   `json:"chunks"`
	Iters            int64   `json:"iters"`
	AffinityHits     int64   `json:"affinity_hits"`
	AffinityHitRatio float64 `json:"affinity_hit_ratio"`
	StolenExec       int64   `json:"stolen_exec"`
	Victimized       int64   `json:"victimized"`
	Utilization      float64 `json:"utilization"`
	StealRate        float64 `json:"steal_rate"`
	QueueDepth       int     `json:"queue_depth"`
}

// TenantSnapshot is one tenant's monotonic admission totals.
type TenantSnapshot struct {
	Tenant    string `json:"tenant"`
	Submitted int64  `json:"submitted"`
	Admitted  int64  `json:"admitted"`
	Shed      int64  `json:"shed"`
	Rejected  int64  `json:"rejected"`
	Completed int64  `json:"completed"`
}

// AdmissionSnapshot is the serving layer's admission view: global
// decision totals, the windowed queue-wait quantiles of admitted jobs,
// and the per-tenant breakdown (sorted by tenant name).
type AdmissionSnapshot struct {
	Admitted int64            `json:"admitted"`
	Shed     int64            `json:"shed"`
	Rejected int64            `json:"rejected"`
	Wait     Quantiles        `json:"wait"`
	Tenants  []TenantSnapshot `json:"tenants,omitempty"`
}

// Snapshot is one coherent scrape of the plane.
type Snapshot struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	WindowSeconds float64          `json:"window_seconds"`
	Counters      Counters         `json:"counters"`
	Submission    Quantiles        `json:"submission"`
	Chunk         Quantiles        `json:"chunk"`
	Steal         Quantiles        `json:"steal"`
	Workers       []WorkerSnapshot `json:"workers"`
	// SubmissionExemplars are the retained traced submissions, slowest
	// first: the head is the current tail-latency exemplar, resolvable
	// through /trace?id= or `loopdoctor trace <id>`.
	SubmissionExemplars []Exemplar `json:"submission_exemplars,omitempty"`
	// QueueDepths is the raw backlog sample: one entry per worker
	// queue (AFS), or a single entry of remaining central iterations.
	QueueDepths []int `json:"queue_depths,omitempty"`
	// FlightDropped counts what the flight ring has evicted since New,
	// as the events and provenance records it would have dumped.
	FlightDroppedEvents int64 `json:"flight_dropped_events"`
	FlightDroppedProv   int64 `json:"flight_dropped_prov"`
	// Admission is the serving layer's admission view, present only
	// once a frontend has reported admission decisions — a plane bound
	// to a bare executor scrapes exactly as it did before serving
	// existed.
	Admission *AdmissionSnapshot `json:"admission,omitempty"`
}

func quantiles(h *rollingHist, now int64) Quantiles {
	qs := h.quantiles(now, 0.50, 0.90, 0.99)
	return Quantiles{Count: h.count(now), P50: qs[0], P90: qs[1], P99: qs[2]}
}

// Snapshot assembles the full live view. Safe to call concurrently
// with execution from any goroutine. The chunk series lag the running
// submissions by at most one phase, or one worker buffer of records.
func (p *Plane) Snapshot() Snapshot {
	p.mu.Lock()
	at := time.Now()
	now := int64(at.Sub(p.t0))
	s := Snapshot{
		UptimeSeconds:       float64(now) / 1e9,
		WindowSeconds:       p.opts.Window.Seconds(),
		Counters:            p.counters,
		Submission:          quantiles(p.subHist, now),
		Chunk:               quantiles(p.chunkHist, now),
		Steal:               quantiles(p.stealHist, now),
		SubmissionExemplars: p.exemplars.snapshot(now),
		Admission:           p.admissionSnapshot(now),
	}
	totals := slices.Clone(p.workers)
	rates := p.refreshGauges(at)
	srcs := p.sources
	p.mu.Unlock()
	s.FlightDroppedEvents, s.FlightDroppedProv = p.rec.Dropped()
	s.QueueDepths = queueDepths(srcs)

	s.Workers = make([]WorkerSnapshot, max(len(totals), procsOf(srcs)))
	for w := range s.Workers {
		ws := WorkerSnapshot{Worker: w}
		if w < len(totals) {
			t := totals[w]
			ws.Chunks, ws.Iters, ws.AffinityHits = t.chunks, t.iters, t.affinityHits
			ws.StolenExec, ws.Victimized = t.stolenExec, t.victimized
			if ws.Chunks > 0 {
				ws.AffinityHitRatio = float64(ws.AffinityHits) / float64(ws.Chunks)
			}
		}
		if w < len(rates) {
			ws.Utilization = rates[w].utilization
			ws.StealRate = rates[w].stealRate
		}
		if w < len(s.QueueDepths) {
			ws.QueueDepth = s.QueueDepths[w]
		}
		s.Workers[w] = ws
	}
	return s
}

// admissionSnapshot assembles the Admission block, or nil when no
// admission decision has ever been reported. The caller holds mu.
func (p *Plane) admissionSnapshot(now int64) *AdmissionSnapshot {
	if len(p.tenants) == 0 {
		return nil
	}
	a := &AdmissionSnapshot{Wait: quantiles(p.admitHist, now)}
	for _, t := range p.tenants {
		a.Admitted += t.Admitted
		a.Shed += t.Shed
		a.Rejected += t.Rejected
		a.Tenants = append(a.Tenants, *t)
	}
	slices.SortFunc(a.Tenants, func(x, y TenantSnapshot) int { return strings.Compare(x.Tenant, y.Tenant) })
	return a
}

// queueDepths reads every bound engine's queue depths, summed by queue
// index.
func queueDepths(srcs []Source) (depths []int) {
	for _, src := range srcs {
		d := src.QueueDepths()
		for len(depths) < len(d) {
			depths = append(depths, 0)
		}
		for q, v := range d {
			depths[q] += v
		}
	}
	return depths
}

// procsOf is the largest worker count among srcs.
func procsOf(srcs []Source) int {
	procs := 0
	for _, src := range srcs {
		procs = max(procs, src.Procs())
	}
	return procs
}

// Procs reports the largest worker count among the bound engines (0
// before Bind).
func (p *Plane) Procs() int {
	p.mu.Lock()
	srcs := p.sources
	p.mu.Unlock()
	return procsOf(srcs)
}
