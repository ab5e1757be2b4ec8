// Package livemetrics is the live observability plane for the
// persistent execution engine: lock-cheap rolling instruments fed by
// the runtime's observer (core.Config.Observer), a bounded flight
// recorder of recent telemetry, and an HTTP introspection surface (see
// http.go and cmd/loopserved).
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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/spantrace"
	"repro/internal/telemetry"
)

// Options sizes the plane's instruments. The zero value gives usable
// defaults (10s window over 10 slots, 4096-event/2048-record flight
// ring, 250ms gauge sampling).
type Options struct {
	// Window is the span the rolling latency quantiles describe.
	Window time.Duration
	// Slots divides Window into ring slots; more slots age old load
	// out more smoothly at slightly more merge work per query.
	Slots int
	// FlightEvents caps the flight recorder's telemetry-event ring.
	FlightEvents int
	// FlightProv caps the flight recorder's provenance ring.
	FlightProv int
	// SampleEvery is the per-worker gauge sampling interval
	// (utilization, steal rate).
	SampleEvery time.Duration
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 10 * time.Second
	}
	if o.Slots <= 0 {
		o.Slots = 10
	}
	if o.FlightEvents <= 0 {
		o.FlightEvents = 4096
	}
	if o.FlightProv <= 0 {
		o.FlightProv = 2048
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 250 * time.Millisecond
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

// tenantState is one tenant's monotonic admission totals.
type tenantState struct {
	submitted atomic.Int64
	admitted  atomic.Int64
	shed      atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
}

// Plane is one engine's live observability surface. Create with New,
// bind to an engine via internal/pool (or repro.WithObservability),
// scrape with Snapshot or the HTTP handler, and Close when done to
// stop the gauge sampler.
type Plane struct {
	opts Options
	t0   time.Time
	col  *Collector
	rec  *Recorder

	subHist *rollingHist
	// exemplars retains the slowest traced submissions per latency
	// bucket, so /metrics tail quantiles resolve to span trees.
	exemplars *exemplarStore
	// tracer, when set, is the span tracer whose trace IDs the
	// exemplars reference; the HTTP handler serves /trace and /traces
	// from it.
	tracer atomic.Pointer[spantrace.Tracer]
	// runtimeFn, when set, contributes a Go-runtime correlation block
	// (internal/runtimeobs) to every Snapshot.
	runtimeFn   atomic.Pointer[func() any]
	submissions atomic.Int64
	completed   atomic.Int64
	cancelled   atomic.Int64
	panicked    atomic.Int64

	// Admission instruments (serving layer): windowed queue-wait
	// latency plus global and per-tenant decision totals. Touched only
	// when a serving frontend calls ObserveAdmission, so a plane bound
	// to a bare executor snapshots exactly as before.
	admitHist     *rollingHist
	admitted      atomic.Int64
	shed          atomic.Int64
	admitRejected atomic.Int64
	tenantMu      sync.Mutex
	tenants       map[string]*tenantState

	// bindMu guards the engine binding (queue-depth source + worker
	// count), set once by the executor that owns the plane.
	bindMu   sync.Mutex
	depthsFn func() []int
	procs    int

	// gaugeMu guards the sampler's latest per-worker rate estimates.
	gaugeMu    sync.Mutex
	gauges     []workerRates
	prevBusy   []int64
	prevVict   []int64
	prevAt     time.Time
	sampleOnce sync.Once
	closeOnce  sync.Once
	stop       chan struct{}
	done       chan struct{}
}

// workerRates is one worker's sampled rate gauges.
type workerRates struct {
	utilization float64
	stealRate   float64
}

// New creates a plane and starts its gauge sampler.
func New(opts Options) *Plane {
	o := opts.withDefaults()
	p := &Plane{
		opts: o,
		t0:   time.Now(),
		rec:  newRecorder(o.FlightEvents, o.FlightProv),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	p.col = newCollector(p.nowNS, o)
	p.subHist = newRollingHist(int64(o.Window), o.Slots, latencyBounds)
	p.admitHist = newRollingHist(int64(o.Window), o.Slots, latencyBounds)
	p.tenants = make(map[string]*tenantState)
	p.exemplars = newExemplarStore(int64(o.Window), latencyBounds)
	go p.sample()
	return p
}

// nowNS is the plane's monotonic clock (ns since New).
func (p *Plane) nowNS() int64 { return int64(time.Since(p.t0)) }

// Observer returns one submission's observer (core.Observer): the
// collector's rolling instruments plus a fresh flight-recorder slot
// that tags the submission's records for later rebasing.
func (p *Plane) Observer() telemetry.Observer {
	return &submissionObserver{col: p.col, rec: p.rec, sub: p.rec.subSeq.Add(1)}
}

// Recorder returns the plane's flight recorder.
func (p *Plane) Recorder() *Recorder { return p.rec }

// Bind attaches the plane to its engine: a live queue-depth source
// (core.Engine.QueueDepths) and the worker count.
func (p *Plane) Bind(depths func() []int, procs int) {
	p.bindMu.Lock()
	p.depthsFn = depths
	p.procs = procs
	p.bindMu.Unlock()
}

// SetTracer attaches a span tracer: exemplar trace IDs reference its
// traces and the HTTP handler serves /trace and /traces from it. nil
// detaches.
func (p *Plane) SetTracer(t *spantrace.Tracer) { p.tracer.Store(t) }

// Tracer returns the attached span tracer, or nil.
func (p *Plane) Tracer() *spantrace.Tracer { return p.tracer.Load() }

// SetRuntimeSource merges a Go-runtime correlation source into the
// plane: fn's result (typically a runtimeobs.Snapshot) rides along as
// Snapshot.Runtime, so one scrape answers both "did the affinity hit
// ratio collapse" and "was the Go runtime under GC or scheduling
// pressure at the time". nil detaches. The plane treats the value as
// opaque — the dependency points runtimeobs→nothing, internal/daemon wires
// the two together.
func (p *Plane) SetRuntimeSource(fn func() any) {
	if fn == nil {
		p.runtimeFn.Store(nil)
		return
	}
	p.runtimeFn.Store(&fn)
}

// ObserveSubmission records one finished submission: its wall latency
// and outcome. traceID, when non-zero, is the submission's span-trace
// ID; the plane retains it as a latency exemplar so tail quantiles
// link to the causal span tree. Anomalous outcomes (cancellation,
// panic) snapshot the flight recorder so the last moments before the
// anomaly stay recoverable; detail labels the snapshot.
func (p *Plane) ObserveSubmission(d time.Duration, outcome Outcome, detail string, traceID uint64) {
	p.submissions.Add(1)
	now := p.nowNS()
	p.subHist.observe(now, float64(d))
	p.exemplars.observe(now, float64(d), traceID, p.tracer.Load())
	switch outcome {
	case OutcomeCancelled:
		p.cancelled.Add(1)
		p.rec.NoteAnomaly("cancelled: " + detail)
	case OutcomePanicked:
		p.panicked.Add(1)
		p.rec.NoteAnomaly("panic: " + detail)
	default:
		p.completed.Add(1)
	}
}

// tenant fetches (or creates) a tenant's counter row. "" maps to the
// default tenant so anonymous submissions still account somewhere.
func (p *Plane) tenant(name string) *tenantState {
	if name == "" {
		name = "default"
	}
	p.tenantMu.Lock()
	defer p.tenantMu.Unlock()
	ts := p.tenants[name]
	if ts == nil {
		ts = &tenantState{}
		p.tenants[name] = ts
	}
	return ts
}

// ObserveAdmission records one serving-layer admission decision for
// tenant: the time the job spent queued at the front door and the
// outcome. Only admitted jobs feed the wait histogram — a shed job is
// refused instantly, and mixing its zero wait in would flatter the
// very overload the p99 objective watches. Sustained shedding is the
// watchdog's job (SignalShedRate), which captures a diagnostic bundle
// rather than freezing the flight recorder on every refusal.
func (p *Plane) ObserveAdmission(tenantName string, wait time.Duration, outcome AdmitOutcome) {
	ts := p.tenant(tenantName)
	ts.submitted.Add(1)
	switch outcome {
	case AdmitShed:
		p.shed.Add(1)
		ts.shed.Add(1)
	case AdmitRejected:
		p.admitRejected.Add(1)
		ts.rejected.Add(1)
	default:
		p.admitted.Add(1)
		ts.admitted.Add(1)
		p.admitHist.observe(p.nowNS(), float64(wait))
	}
}

// ObserveTenantCompletion credits tenant with one job that finished
// executing (goodput, as opposed to merely being admitted).
func (p *Plane) ObserveTenantCompletion(tenantName string) {
	p.tenant(tenantName).completed.Add(1)
}

// Close stops the gauge sampler. Idempotent; the plane stays readable
// (counters, histograms, flight dumps) after Close, but rate gauges
// freeze.
func (p *Plane) Close() {
	p.closeOnce.Do(func() {
		close(p.stop)
		<-p.done
	})
}

// sample is the off-path aggregation loop: every SampleEvery it turns
// the collector's monotonic per-worker counters into rate gauges
// (utilization = busy-ns/wall-ns, steal rate = chunks stolen from the
// worker per second).
func (p *Plane) sample() {
	defer close(p.done)
	t := time.NewTicker(p.opts.SampleEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.sampleOnceNow()
		}
	}
}

func (p *Plane) sampleOnceNow() {
	now := time.Now()
	states := p.col.states()
	p.gaugeMu.Lock()
	defer p.gaugeMu.Unlock()
	wall := now.Sub(p.prevAt)
	first := p.prevAt.IsZero()
	if len(p.gauges) < len(states) {
		p.gauges = append(p.gauges, make([]workerRates, len(states)-len(p.gauges))...)
		p.prevBusy = append(p.prevBusy, make([]int64, len(states)-len(p.prevBusy))...)
		p.prevVict = append(p.prevVict, make([]int64, len(states)-len(p.prevVict))...)
	}
	for w, ws := range states {
		busy := ws.busyNS.Load()
		vict := ws.victimized.Load()
		if !first && wall > 0 {
			u := float64(busy-p.prevBusy[w]) / float64(wall)
			if u < 0 {
				u = 0
			}
			if u > 1 {
				u = 1
			}
			p.gauges[w] = workerRates{
				utilization: u,
				stealRate:   float64(vict-p.prevVict[w]) / wall.Seconds(),
			}
		}
		p.prevBusy[w] = busy
		p.prevVict[w] = vict
	}
	p.prevAt = now
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
	// FlightDropped counts ring evictions since New (events, prov).
	FlightDroppedEvents int64 `json:"flight_dropped_events"`
	FlightDroppedProv   int64 `json:"flight_dropped_prov"`
	// Runtime is the Go-runtime correlation block contributed by
	// SetRuntimeSource (a runtimeobs.Snapshot when internal/daemon wires
	// one), or nil.
	Runtime any `json:"runtime,omitempty"`
	// Admission is the serving layer's admission view, present only
	// once a frontend has reported admission decisions — a plane bound
	// to a bare executor scrapes exactly as it did before serving
	// existed.
	Admission *AdmissionSnapshot `json:"admission,omitempty"`
}

func (p *Plane) quantiles(h *rollingHist) Quantiles {
	now := p.nowNS()
	qs := h.quantiles(now, 0.50, 0.90, 0.99)
	return Quantiles{Count: h.count(now), P50: qs[0], P90: qs[1], P99: qs[2]}
}

// Snapshot assembles the full live view. Safe to call concurrently
// with execution from any goroutine.
func (p *Plane) Snapshot() Snapshot {
	s := Snapshot{
		UptimeSeconds: float64(p.nowNS()) / 1e9,
		WindowSeconds: p.opts.Window.Seconds(),
		Counters: Counters{
			Submissions:   p.submissions.Load(),
			Completed:     p.completed.Load(),
			Cancellations: p.cancelled.Load(),
			Panics:        p.panicked.Load(),
			Chunks:        p.col.chunks.Load(),
			Steals:        p.col.steals.Load(),
			MigratedIters: p.col.migrated.Load(),
		},
		Submission: p.quantiles(p.subHist),
		Chunk:      p.quantiles(p.col.chunkHist),
		Steal:      p.quantiles(p.col.stealHist),
	}
	s.FlightDroppedEvents, s.FlightDroppedProv = p.rec.Dropped()
	s.SubmissionExemplars = p.exemplars.snapshot(p.nowNS())
	s.Admission = p.admissionSnapshot()
	if fn := p.runtimeFn.Load(); fn != nil {
		s.Runtime = (*fn)()
	}

	p.bindMu.Lock()
	depthsFn, procs := p.depthsFn, p.procs
	p.bindMu.Unlock()
	if depthsFn != nil {
		s.QueueDepths = depthsFn()
	}

	states := p.col.states()
	rows := len(states)
	if procs > rows {
		rows = procs
	}
	p.gaugeMu.Lock()
	gauges := append([]workerRates(nil), p.gauges...)
	p.gaugeMu.Unlock()
	s.Workers = make([]WorkerSnapshot, rows)
	for w := range s.Workers {
		ws := WorkerSnapshot{Worker: w}
		if w < len(states) {
			st := states[w]
			ws.Chunks = st.chunks.Load()
			ws.Iters = st.iters.Load()
			ws.AffinityHits = st.affinityHits.Load()
			ws.StolenExec = st.stolenExec.Load()
			ws.Victimized = st.victimized.Load()
			if ws.Chunks > 0 {
				ws.AffinityHitRatio = float64(ws.AffinityHits) / float64(ws.Chunks)
			}
		}
		if w < len(gauges) {
			ws.Utilization = gauges[w].utilization
			ws.StealRate = gauges[w].stealRate
		}
		if w < len(s.QueueDepths) {
			ws.QueueDepth = s.QueueDepths[w]
		}
		s.Workers[w] = ws
	}
	return s
}

// admissionSnapshot assembles the Admission block, or nil when no
// admission decision has ever been reported.
func (p *Plane) admissionSnapshot() *AdmissionSnapshot {
	p.tenantMu.Lock()
	names := make([]string, 0, len(p.tenants))
	for name := range p.tenants {
		names = append(names, name)
	}
	rows := make(map[string]*tenantState, len(p.tenants))
	for name, ts := range p.tenants {
		rows[name] = ts
	}
	p.tenantMu.Unlock()
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	a := &AdmissionSnapshot{
		Admitted: p.admitted.Load(),
		Shed:     p.shed.Load(),
		Rejected: p.admitRejected.Load(),
		Wait:     p.quantiles(p.admitHist),
	}
	for _, name := range names {
		ts := rows[name]
		a.Tenants = append(a.Tenants, TenantSnapshot{
			Tenant:    name,
			Submitted: ts.submitted.Load(),
			Admitted:  ts.admitted.Load(),
			Shed:      ts.shed.Load(),
			Rejected:  ts.rejected.Load(),
			Completed: ts.completed.Load(),
		})
	}
	return a
}

// Procs reports the bound engine's worker count (0 before Bind).
func (p *Plane) Procs() int {
	p.bindMu.Lock()
	defer p.bindMu.Unlock()
	return p.procs
}

// Collector is the hot-path sink for chunk and steal records, fed by
// each submission's observer (Plane.Observer). Every method is a
// handful of atomic adds plus one binary search into the histogram
// bounds — safe and cheap from all workers concurrently.
type Collector struct {
	now       func() int64
	chunks    atomic.Int64
	steals    atomic.Int64
	migrated  atomic.Int64
	chunkHist *rollingHist
	stealHist *rollingHist

	// workers grows lazily as higher worker indices appear; the slice
	// of pointers is swapped atomically so readers never lock.
	workers atomic.Pointer[[]*workerState]
	growMu  sync.Mutex
}

// workerState is one worker's monotonic totals, padded so neighbouring
// workers don't share a cache line.
type workerState struct {
	chunks       atomic.Int64
	iters        atomic.Int64
	affinityHits atomic.Int64
	stolenExec   atomic.Int64
	victimized   atomic.Int64
	busyNS       atomic.Int64
	_            [2]uint64
}

func newCollector(now func() int64, o Options) *Collector {
	return &Collector{
		now:       now,
		chunkHist: newRollingHist(int64(o.Window), o.Slots, latencyBounds),
		stealHist: newRollingHist(int64(o.Window), o.Slots, latencyBounds),
	}
}

// states returns the current worker slice (nil-free, read-only by
// convention).
func (c *Collector) states() []*workerState {
	if p := c.workers.Load(); p != nil {
		return *p
	}
	return nil
}

func (c *Collector) worker(w int) *workerState {
	if p := c.workers.Load(); p != nil && w < len(*p) {
		return (*p)[w]
	}
	return c.grow(w)
}

func (c *Collector) grow(w int) *workerState {
	c.growMu.Lock()
	defer c.growMu.Unlock()
	var old []*workerState
	if p := c.workers.Load(); p != nil {
		old = *p
	}
	if w < len(old) {
		return old[w]
	}
	// Size exactly to the highest index seen: every slot becomes a
	// worker row in Snapshot (and a per-worker series in /metrics.prom),
	// so over-allocating — e.g. doubling — invents phantom zero workers
	// whenever indices arrive out of order. Growth is bounded by the
	// executor's worker count, so the amortization doubling would buy is
	// irrelevant here.
	n := w + 1
	next := make([]*workerState, n)
	copy(next, old)
	for i := len(old); i < n; i++ {
		next[i] = &workerState{}
	}
	c.workers.Store(&next)
	return next[w]
}

// chunk records one executed chunk: totals, the windowed
// chunk-latency histogram, and the affinity-hit account — a hit is an
// un-stolen chunk executed by its owning worker (central dispensers
// report owner -1 and so never hit).
func (c *Collector) chunk(p telemetry.Prov) {
	if p.Proc < 0 {
		return
	}
	durNS := p.End - p.Start
	c.chunks.Add(1)
	c.chunkHist.observe(c.now(), durNS)
	ws := c.worker(p.Proc)
	ws.chunks.Add(1)
	ws.iters.Add(int64(p.Iters()))
	ws.busyNS.Add(int64(durNS))
	if p.Stolen {
		ws.stolenExec.Add(1)
	} else if p.Owner == p.Proc {
		ws.affinityHits.Add(1)
	}
}

// steal records one successful steal and its measured latency.
func (c *Collector) steal(e telemetry.Event) {
	c.steals.Add(1)
	c.migrated.Add(int64(e.Hi - e.Lo))
	c.stealHist.observe(c.now(), e.End-e.Start)
	if e.Victim >= 0 {
		c.worker(e.Victim).victimized.Add(1)
	}
}
