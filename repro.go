// Package repro is a Go reproduction of Markatos & LeBlanc, "Using
// Processor Affinity in Loop Scheduling on Shared-Memory
// Multiprocessors" (Supercomputing 1992).
//
// It provides:
//
//   - a real parallel-for runtime implementing every loop scheduling
//     algorithm the paper studies — static, self-scheduling, fixed
//     chunking, guided self-scheduling, factoring, trapezoid
//     self-scheduling, modified factoring, and affinity scheduling
//     (AFS), plus the tapering / adaptive-GSS / AFS-LE extensions —
//     over goroutine workers with per-worker work queues and
//     most-loaded stealing (ParallelFor, ForPhases);
//   - a deterministic discrete-event simulator of the paper's four
//     machines (SGI Iris, BBN Butterfly I, Sequent Symmetry, KSR-1)
//     that regenerates every figure and table in the paper's evaluation
//     (Simulate; see cmd/paperfigs and EXPERIMENTS.md).
//
// Quick start:
//
//	stats, err := repro.ParallelFor(1_000_000, func(i int) { work(i) },
//	    repro.WithScheduler("afs"), repro.WithProcs(8))
package repro

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/livemetrics"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/spantrace"
	"repro/internal/telemetry"
)

// Scheduler identifies a loop scheduling algorithm configuration.
type Scheduler = sched.Spec

// Scheduler constructors for the paper's algorithms and extensions.
var (
	// Static divides iterations into P contiguous blocks up front.
	Static = sched.SpecStatic
	// BestStatic is the oracle static baseline (§4.1); supply per-
	// iteration costs via WithCostHint.
	BestStatic = sched.SpecBestStatic
	// SelfScheduling takes one iteration per central-queue access.
	SelfScheduling = sched.SpecSS
	// Chunk takes K iterations per access.
	Chunk = sched.SpecChunk
	// GSS is guided self-scheduling: ⌈R/P⌉ of the remaining R.
	GSS = sched.SpecGSS
	// GSSK is GSS taking ⌈R/(kP)⌉ (the paper's §4.3 variant).
	GSSK = sched.SpecGSSK
	// Factoring allocates phases of P equal chunks covering half the
	// remainder.
	Factoring = sched.SpecFactoring
	// Trapezoid decreases chunk sizes linearly from ⌈N/2P⌉.
	Trapezoid = sched.SpecTrapezoid
	// Tapering shrinks GSS chunks by the iteration-time variance
	// (extension).
	Tapering = sched.SpecTapering
	// AdaptiveGSS backs off chunk sizes under queue contention
	// (extension).
	AdaptiveGSS = sched.SpecAdaptiveGSS
	// AFS is affinity scheduling with k = P (the paper's default).
	AFS = sched.SpecAFS
	// AFSK is affinity scheduling with an explicit local divisor k.
	AFSK = sched.SpecAFSK
	// AFSLE assigns re-executions to the last executing processor
	// (extension discussed in §4.3).
	AFSLE = sched.SpecAFSLE
	// AFSRandom steals from a random victim instead of scanning for the
	// most loaded queue (the §2.2 scalability extension).
	AFSRandom = sched.SpecAFSRandom
	// AFSPow2 steals from the longer of two random victims.
	AFSPow2 = sched.SpecAFSPow2
	// ModFactoring is the affinity-preserving factoring of §2.3.
	ModFactoring = sched.SpecModFactoring
)

// SchedulerByName resolves names like "afs", "gss", "chunk(8)",
// "afs(k=2)" (case-insensitive).
func SchedulerByName(name string) (Scheduler, error) { return sched.ByName(name) }

// Schedulers returns every available algorithm with default parameters.
func Schedulers() []Scheduler { return sched.AllSpecs() }

// RunStats reports a real execution's scheduling activity.
type RunStats = core.Stats

// JobSpec is the canonical, serializable description of one loop job:
// scheduler, worker count, grain, kernel name + params, tenant,
// priority and deadline — everything a submission needs except the
// loop body itself. The variadic options below lower onto a JobSpec,
// internal/serve accepts one as the HTTP request body, and the
// serveclient package marshals the same struct on the client side, so
// local and remote submission share one request shape.
type JobSpec = job.Spec

// JobParams sizes a JobSpec's named kernel (zero fields take the
// kernel's defaults).
type JobParams = job.Params

// KernelNames lists the registered loop kernels a JobSpec may name,
// sorted (see Executor.SubmitJob and cmd/loopserved).
func KernelNames() []string { return job.Names() }

// Option configures ParallelFor / ForPhases / Executor submissions.
// The serializable settings (scheduler, procs, grain, tenant, ...)
// lower onto the config's JobSpec; the remaining options attach the
// process-local machinery a wire format cannot carry (sinks, planes,
// tracers, context, cost models).
type Option func(*config)

type config struct {
	// job is the serializable half of the submission; WithProcs,
	// WithScheduler, WithGrain, WithTenant and WithJobSpec write here.
	job JobSpec
	// spec, when set, is WithSpec's fully-parameterised Scheduler value
	// — the non-serializable escape hatch (e.g. Tapering with a custom
	// CV has no ByName spelling). It overrides job.Scheduler at
	// lowering.
	spec *Scheduler
	// Process-local attachments, applied on top of the lowered config.
	ctx             context.Context
	costHint        func(ph, i int) float64
	startDelay      []time.Duration
	events          EventSink
	metrics         *MetricsRegistry
	prov            ProvenanceSink
	queueDepthEvery time.Duration
	obs             *livemetrics.Plane
	tracer          *spantrace.Tracer

	// cc is the lowered core config, resolved once by buildConfig.
	cc  core.Config
	err error
}

// fail records the first option error (cli.FirstError semantics: one
// submission, one diagnostic, naming the offending option).
func (c *config) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// optionErr names the offending option the way internal/cli names a
// flag: "WithProcs: procs must be ≥ 1, got 0".
func optionErr(opt, format string, args ...any) error {
	return fmt.Errorf("%s: %s", opt, fmt.Sprintf(format, args...))
}

// WithProcs sets the number of worker goroutines (p ≥ 1).
func WithProcs(p int) Option {
	return func(c *config) {
		if p < 1 {
			c.fail(optionErr("WithProcs", "procs must be ≥ 1, got %d", p))
			return
		}
		c.job.Procs = p
	}
}

// WithSpec selects the scheduling algorithm from a Scheduler value.
// For algorithms with a ByName spelling prefer WithScheduler — it
// keeps the submission fully serializable; WithSpec also accepts
// parameterisations that have no name (a custom Tapering CV).
func WithSpec(s Scheduler) Option {
	return func(c *config) {
		c.spec = &s
		if _, err := sched.ByName(s.Name); err == nil {
			c.job.Scheduler = s.Name
		}
	}
}

// WithScheduler selects the scheduling algorithm by name ("afs",
// "gss", "chunk(8)", ...); unknown names surface as an error naming
// this option from ParallelFor/ForPhases/Submit.
func WithScheduler(name string) Option {
	return func(c *config) {
		if _, err := sched.ByName(name); err != nil {
			c.fail(optionErr("WithScheduler", "%v", err))
			return
		}
		c.job.Scheduler = name
		c.spec = nil
	}
}

// WithTenant names the submitting principal for fair queuing and
// quota accounting — a pass-through for local executors, the admission
// identity when the JobSpec is submitted to a loopserved instance.
func WithTenant(name string) Option {
	return func(c *config) { c.job.Tenant = name }
}

// WithJobSpec replaces the whole serializable half of the submission
// with s — the bridge from wire jobs to local execution (serve uses it
// after decoding a request; see also Executor.SubmitJob). Options
// applied after it override individual fields; options applied before
// it (including NewExecutor defaults) are superseded. Validation
// errors name the offending JobSpec field.
func WithJobSpec(s JobSpec) Option {
	return func(c *config) {
		if err := s.Validate(); err != nil {
			c.fail(optionErr("WithJobSpec", "%v", err))
			return
		}
		c.job = s
		c.spec = nil
	}
}

// WithCostHint supplies per-iteration cost estimates (phase, index) for
// the BEST-STATIC oracle partitioner.
func WithCostHint(hint func(ph, i int) float64) Option {
	return func(c *config) { c.costHint = hint }
}

// WithStartDelay delays each worker's start by the given amount,
// reproducing the §4.5 non-uniform processor arrival experiments.
func WithStartDelay(delays ...time.Duration) Option {
	return func(c *config) {
		for _, d := range delays {
			if d < 0 {
				c.fail(optionErr("WithStartDelay", "delays must be ≥ 0, got %v", d))
				return
			}
		}
		c.startDelay = delays
	}
}

// WithGrain sets the minimum iterations handed out per queue operation
// (min ≥ 0; 0 or 1 means no coarsening), for loops whose bodies are
// too cheap to justify per-chunk dispatch.
func WithGrain(min int) Option {
	return func(c *config) {
		if min < 0 {
			c.fail(optionErr("WithGrain", "grain must be ≥ 0, got %d", min))
			return
		}
		c.job.Grain = min
	}
}

// WithEvents attaches a telemetry sink receiving the structured event
// stream (exec / steal / phase-boundary events and queue waits longer
// than 1µs, with nanosecond timestamps). The sink must be safe for concurrent use —
// NewEventStream returns a suitable one. With no sink the hot path
// pays a single nil check.
func WithEvents(s EventSink) Option {
	return func(c *config) { c.events = s }
}

// WithMetrics attaches a metrics registry accumulating counters and
// histograms (chunk sizes, steal latencies, queue waits) with a
// time-series snapshot taken at every phase barrier.
func WithMetrics(r *MetricsRegistry) Option {
	return func(c *config) { c.metrics = r }
}

// WithProvenance attaches a provenance sink receiving one record per
// executed chunk (owner queue, stolen flag, measured dispatch wait) —
// the raw material for internal/forensics slowdown attribution.
// NewProvenanceStream returns a suitable concurrent-safe sink.
func WithProvenance(s ProvenanceSink) Option {
	return func(c *config) { c.prov = s }
}

// WithQueueDepthSampling samples every work queue's backlog at the
// given interval into RunStats.QueueDepthSamples — the real runtime's
// version of the simulator's per-queue imbalance signal.
func WithQueueDepthSampling(every time.Duration) Option {
	return func(c *config) {
		if every < 0 {
			c.fail(optionErr("WithQueueDepthSampling", "interval must be ≥ 0, got %v", every))
			return
		}
		c.queueDepthEvery = every
	}
}

// Observability is a live observability plane: lock-cheap rolling
// latency quantiles (per submission and per chunk), per-worker
// utilization / steal-rate / queue-depth / affinity-hit gauges, and a
// bounded flight recorder of recent telemetry that freezes
// automatically on panic or cancellation. Create with NewObservability,
// attach with WithObservability, scrape with Snapshot or serve over
// HTTP with ObservabilityHandler (see also cmd/loopserved), and Close
// when done.
type Observability = livemetrics.Plane

// ObservabilityOptions sizes a plane's instruments (rolling window,
// flight-ring capacities, gauge sampling interval). The zero value
// gives usable defaults.
type ObservabilityOptions = livemetrics.Options

// ObservabilitySnapshot is one coherent scrape of a plane.
type ObservabilitySnapshot = livemetrics.Snapshot

// NewObservability creates a live observability plane.
func NewObservability(opts ObservabilityOptions) *Observability {
	return livemetrics.New(opts)
}

// WithObservability attaches a plane. At NewExecutor it observes every
// subsequent submission (latencies, per-chunk instruments, flight
// recorder, live queue depths); on a one-shot call it observes that
// run. An Executor submission may only re-pass the executor's own
// plane. The caller owns the plane and Closes it.
func WithObservability(p *Observability) Option {
	return func(c *config) { c.obs = p }
}

// ObservabilityHandler serves a plane over HTTP: an auto-refreshing
// HTML view at /, /metrics (JSON + expvar), /metrics.prom (Prometheus
// text exposition), /workers, /flight (?format=jsonl|chrome|trace,
// ?which=live|anomaly), /traces + /trace?id= (when a tracer is
// attached), and /debug/ (pprof + expvar). label names the engine in
// views and trace metadata.
func ObservabilityHandler(p *Observability, label string) http.Handler {
	return livemetrics.NewHandler(p, label)
}

// Tracing is a causal span tracer: every traced submission becomes a
// span tree — one submission root, one span per phase, one span per
// executed chunk and per steal, with parent/child and steals-from
// causal links — retained in a bounded ring keyed by trace ID. Create
// with NewTracing, attach with WithTracing, look up with Get/Traces or
// serve with TraceHandler; tail-latency exemplars in an attached
// Observability plane carry these trace IDs, so a slow /metrics tail
// resolves to the exact dispatch history that produced it
// (`loopdoctor trace <id>`).
type Tracing = spantrace.Tracer

// TracingOptions sizes a tracer (per-trace span cap, completed-trace
// ring). The zero value gives usable defaults.
type TracingOptions = spantrace.Options

// SpanTrace is one sealed submission's span tree.
type SpanTrace = spantrace.Trace

// Span is one node of a span tree.
type Span = spantrace.Span

// NewTracing creates a causal span tracer.
func NewTracing(opts TracingOptions) *Tracing { return spantrace.NewTracer(opts) }

// WithTracing attaches a tracer. At NewExecutor it traces every
// subsequent submission; on a one-shot call it traces that run. When
// an Observability plane is attached alongside it, the plane's
// latency exemplars carry trace IDs and its HTTP handler serves
// /traces and /trace?id=. An Executor submission may only re-pass the
// executor's own tracer. The caller owns the tracer.
func WithTracing(t *Tracing) Option {
	return func(c *config) { c.tracer = t }
}

// TraceHandler serves a tracer over HTTP on its own: /traces (summary
// list, newest first) and /trace?id= (?format=json for the span tree,
// ?format=trace for a forensics-compatible telemetry file). The same
// endpoints appear under ObservabilityHandler when the plane has a
// tracer attached.
func TraceHandler(t *Tracing) http.Handler { return spantrace.Handler(t) }

// Server is the multi-tenant loop-scheduling service: serializable
// JobSpecs against named kernels, admitted through per-tenant
// token-bucket quotas and a weighted fair queue with a bounded
// backlog (excess sheds rather than queueing unboundedly), dispatched
// onto a pool of Executor shards keyed scheduler×procs so affinity
// state persists fleet-wide. Create with NewServer, serve over HTTP
// with ServeHandler (see cmd/loopserved; Go client: repro/serveclient),
// and Close when done.
type Server = serve.Server

// ServerOptions configures a Server: shard worker counts, queue bound,
// per-tenant quotas and weights, and the observability attachments.
type ServerOptions = serve.Options

// ServerTenant is one tenant's admission policy (fair-queue weight,
// token-bucket rate and burst).
type ServerTenant = serve.TenantConfig

// NewServer starts a loop-scheduling service.
func NewServer(opts ServerOptions) (*Server, error) { return serve.New(opts) }

// ServeHandler serves a Server over HTTP: an auto-refreshing HTML view
// at /, POST /jobs (JobSpec JSON in, stats + checksum out; 429 with
// Retry-After on shed, 400 on an invalid spec, 503 once closed),
// /kernels, /status, /tenants, /shards, /healthz. Observability
// endpoints are mounted separately via ObservabilityHandler, as in
// cmd/loopserved. label names the service in the HTML view.
func ServeHandler(s *Server, label string) http.Handler {
	return serve.NewHandler(s, label)
}

// lower resolves the option list's JobSpec into the engine's
// submission config — the same job.Spec.Config path a wire submission
// takes — then layers the process-local attachments on top.
func (c *config) lower() (core.Config, error) {
	cc, err := c.job.Config()
	if err != nil {
		return core.Config{}, err
	}
	if c.spec != nil {
		cc.Spec = *c.spec
	}
	cc.Ctx = c.ctx
	cc.CostHint = c.costHint
	cc.StartDelay = c.startDelay
	cc.Observer = telemetry.TeeObservers(notableEvents(c.events),
		telemetry.ObserveMetrics(c.metrics, "ns"), telemetry.ObserveProv(c.prov))
	cc.QueueDepthEvery = c.queueDepthEvery
	return cc, nil
}

// notableEvents adapts a real-runtime event sink, keeping only notable
// dispatch events (Event.Notable): an uncontended queue acquisition on
// every fetch would drown the stream.
func notableEvents(s EventSink) telemetry.Observer {
	if s == nil {
		return nil
	}
	return telemetry.ObserveEvents(notableSink{s})
}

type notableSink struct{ EventSink }

func (s notableSink) Emit(e TelemetryEvent) {
	if e.Notable() {
		s.EventSink.Emit(e)
	}
}

func buildConfig(opts []Option) (config, error) {
	// One-shot paths run under context.Background(); the *Ctx variants
	// and Executor submissions overwrite Ctx afterwards.
	cfg := config{ctx: context.Background()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err == nil {
		cfg.cc, cfg.err = cfg.lower()
	}
	return cfg, cfg.err
}

// runObserved runs one one-shot loop under the config's plane and
// tracer through the same attach/seal routine an Executor submission
// takes (pool.Observed): the run reports to the plane as a submission
// (a cancelled run counts as an anomaly and freezes the flight
// recorder) and its sealed span tree's trace ID becomes a latency
// exemplar. With neither attached, run executes bare. A body panic
// propagates (one-shot semantics); the trace of a panicked run is
// dropped with its Active.
func runObserved(cfg config, phases int, run func(cc core.Config) (RunStats, error)) (RunStats, error) {
	if cfg.tracer != nil && cfg.obs != nil {
		cfg.obs.SetTracer(cfg.tracer)
	}
	res, err := pool.Observed(cfg.cc, cfg.obs, cfg.tracer, procsOf(cfg.cc), phases,
		func(cc core.Config) (core.Result, error) {
			st, err := run(cc)
			return core.Result{Stats: st}, err
		})
	return res.Stats, err
}

// ParallelFor executes body(i) for every i in [0, n) on a pool of
// workers under the selected scheduling algorithm (default: AFS), and
// returns scheduling statistics.
func ParallelFor(n int, body func(i int), opts ...Option) (RunStats, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return RunStats{}, err
	}
	return runObserved(cfg, 1, func(cc core.Config) (RunStats, error) {
		return core.ParallelFor(cc, n, body)
	})
}

// ParallelForCtx is ParallelFor with a cancellation context: when ctx
// is cancelled, dispatch stops at chunk granularity (in-flight chunks
// finish), the worker barrier drains cleanly, and ParallelForCtx
// returns ctx's error alongside the partial statistics.
func ParallelForCtx(ctx context.Context, n int, body func(i int), opts ...Option) (RunStats, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return RunStats{}, err
	}
	cfg.cc.Ctx = ctx
	return runObserved(cfg, 1, func(cc core.Config) (RunStats, error) {
		return core.ParallelFor(cc, n, body)
	})
}

// ForPhases executes a parallel loop nested inside a sequential loop —
// the shape affinity scheduling exploits: for each phase ph in
// [0, phases), body(ph, i) runs for i in [0, n(ph)) with a barrier
// between phases, and AFS places the same iterations on the same worker
// every phase.
func ForPhases(phases int, n func(ph int) int, body func(ph, i int), opts ...Option) (RunStats, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return RunStats{}, err
	}
	return runObserved(cfg, phases, func(cc core.Config) (RunStats, error) {
		return core.Run(cc, phases, n, body)
	})
}

// ForPhasesCtx is ForPhases with a cancellation context, with the same
// chunk-granularity semantics as ParallelForCtx: the phase in flight
// stops dispatching, the barrier completes, and the error is ctx's.
// RunStats.Phases reports how many phases fully completed.
func ForPhasesCtx(ctx context.Context, phases int, n func(ph int) int, body func(ph, i int), opts ...Option) (RunStats, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return RunStats{}, err
	}
	cfg.cc.Ctx = ctx
	return runObserved(cfg, phases, func(cc core.Config) (RunStats, error) {
		return core.Run(cc, phases, n, body)
	})
}

// Executor is the persistent lifetime of the runtime: a long-lived
// worker pool accepting loop submissions from any number of goroutines
// for its whole life, so the paper's affinity state — the
// deterministic ⌈N/P⌉ ownership mapping, the per-worker AFS queues,
// and the workers' warmed caches — carries over between successive
// loops on the same index space instead of being torn down on every
// call, and per-call goroutine spawn/teardown is amortised across the
// submission stream.
//
// Submissions are admitted in FIFO arrival order and run one at a
// time with the full worker set (per-loop isolation, the paper's
// one-loop-owns-the-machine model). Each submission carries its own
// options, statistics, telemetry sinks and failure domain: a body
// panic surfaces to that submitter as *ExecutorPanicError, a context
// cancellation stops that loop at chunk granularity — neither poisons
// later submissions.
//
//	ex, _ := repro.NewExecutor(repro.WithProcs(8))
//	defer ex.Close()
//	for _, req := range requests {
//	    stats, err := ex.Submit(req.Ctx, req.N, req.Body, repro.WithScheduler("afs"))
//	    ...
//	}
type Executor struct {
	px       *pool.Executor
	defaults []Option
}

// ExecutorPanicError wraps a loop body's panic value: unlike the
// one-shot ParallelFor (which re-panics like a sequential loop), an
// Executor contains the panic to the offending submission.
type ExecutorPanicError = pool.PanicError

// ErrExecutorClosed is returned by submissions made after Close.
var ErrExecutorClosed = pool.ErrClosed

// NewExecutor starts a persistent executor. The options become the
// defaults for every submission (per-submission options override
// them); WithProcs fixes the pool size (default runtime.GOMAXPROCS).
func NewExecutor(opts ...Option) (*Executor, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	px, err := pool.New(procsOf(cfg.cc))
	if err != nil {
		return nil, err
	}
	if cfg.obs != nil {
		px.SetObservability(cfg.obs)
	}
	if cfg.tracer != nil {
		px.SetTracer(cfg.tracer)
		if cfg.obs != nil {
			cfg.obs.SetTracer(cfg.tracer)
		}
	}
	return &Executor{px: px, defaults: opts}, nil
}

// procsOf resolves a config's worker count the same way the one-shot
// paths do.
func procsOf(cfg core.Config) int {
	if cfg.Procs > 0 {
		return cfg.Procs
	}
	return runtime.GOMAXPROCS(0)
}

// Procs is the executor's worker count. Submissions may select fewer
// workers with WithProcs, never more.
func (e *Executor) Procs() int { return e.px.Procs() }

// Submissions counts submissions that have completed execution,
// including cancelled and panicked ones.
func (e *Executor) Submissions() int64 { return e.px.Submissions() }

// Close stops the workers once in-flight submissions finish; later
// submissions fail with ErrExecutorClosed. Idempotent.
func (e *Executor) Close() error { return e.px.Close() }

// submitConfig merges the executor defaults with one submission's
// options, resolving the submission's core config. The plane and the
// tracer are executor-lifetime options, wired by internal/pool once per
// submission: a submission may re-pass the executor's own (the merged
// defaults do), but any other is rejected rather than ignored.
func (e *Executor) submitConfig(opts []Option) (core.Config, error) {
	merged := make([]Option, 0, len(e.defaults)+len(opts))
	merged = append(merged, e.defaults...)
	merged = append(merged, opts...)
	cfg, err := buildConfig(merged)
	if err != nil {
		return core.Config{}, err
	}
	if cfg.obs != e.px.Observability() {
		return core.Config{}, optionErr("WithObservability", "a submission cannot change the executor's plane; pass it to NewExecutor")
	}
	if cfg.tracer != e.px.Tracer() {
		return core.Config{}, optionErr("WithTracing", "a submission cannot change the executor's tracer; pass it to NewExecutor")
	}
	return cfg.cc, nil
}

// Submit executes body(i) for i in [0, n) on the pool and blocks until
// the loop completes, is cancelled, or panics. Safe to call from many
// goroutines; admission is FIFO. A nil ctx means context.Background().
func (e *Executor) Submit(ctx context.Context, n int, body func(i int), opts ...Option) (RunStats, error) {
	cfg, err := e.submitConfig(opts)
	if err != nil {
		return RunStats{}, err
	}
	return e.px.Submit(ctx, cfg, n, body)
}

// SubmitPhases executes a phased loop on the pool (see ForPhases),
// preserving cross-phase — and, across submissions over the same index
// space, cross-loop — affinity.
func (e *Executor) SubmitPhases(ctx context.Context, phases int, n func(ph int) int, body func(ph, i int), opts ...Option) (RunStats, error) {
	cfg, err := e.submitConfig(opts)
	if err != nil {
		return RunStats{}, err
	}
	return e.px.SubmitPhases(ctx, cfg, phases, n, body)
}

// SubmitJob executes a serializable JobSpec on the pool: the spec's
// kernel name is resolved against the registered kernel table (see
// KernelNames), fresh per-job kernel state is built from its params,
// and the phased loop runs under the spec's scheduler/procs/grain —
// the exact execution path a loopserved instance takes for a wire
// submission, available locally. A positive DeadlineMS bounds the run
// via the context. Returns the run's stats and the kernel checksum.
func (e *Executor) SubmitJob(ctx context.Context, spec JobSpec, opts ...Option) (RunStats, float64, error) {
	if err := spec.RequireKernel(); err != nil {
		return RunStats{}, 0, err
	}
	r, err := job.Build(spec)
	if err != nil {
		return RunStats{}, 0, err
	}
	merged := append([]Option{WithJobSpec(spec)}, opts...)
	cfg, err := e.submitConfig(merged)
	if err != nil {
		return RunStats{}, 0, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if d := spec.Deadline(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	st, err := e.px.SubmitPhases(ctx, cfg, r.Phases, r.N, r.Body)
	return st, r.Checksum(), err
}

// Observability returns the executor's live plane (set with
// WithObservability at NewExecutor), or nil.
func (e *Executor) Observability() *Observability { return e.px.Observability() }

// Tracing returns the executor's causal tracer (set with WithTracing
// at NewExecutor), or nil. Like the plane, tracing is an
// executor-lifetime concern: a submission that passes a different
// tracer fails with an error naming WithTracing.
func (e *Executor) Tracing() *Tracing { return e.px.Tracer() }

// Machine is a simulated shared-memory multiprocessor description.
type Machine = machine.Machine

// Machine presets for the paper's four platforms, plus an ideal PRAM
// for testing.
var (
	Iris         = machine.Iris
	ButterflyI   = machine.ButterflyI
	Symmetry     = machine.Symmetry
	KSR1         = machine.KSR1
	IdealMachine = machine.Ideal
)

// MachineByName resolves "iris", "butterfly", "symmetry", "ksr1",
// "ideal".
func MachineByName(name string) (*Machine, error) { return machine.ByName(name) }

// SimProgram describes a phased parallel computation for the simulator
// (per-iteration costs and memory footprints).
type SimProgram = sim.Program

// SimLoop is one parallel loop of a SimProgram.
type SimLoop = sim.ParLoop

// SimTouch is one memory-footprint reference made by an iteration.
type SimTouch = sim.Touch

// SimResult reports a simulated execution.
type SimResult = sim.Metrics

// SimOptions tunes a simulation run (per-processor start delays,
// jitter seed, optional observer).
type SimOptions = sim.Options

// TelemetryEvent is one structured scheduling event (exec, steal,
// queue wait, cache flush, phase boundary) from either substrate.
type TelemetryEvent = telemetry.Event

// EventSink consumes telemetry events as they happen.
type EventSink = telemetry.Sink

// EventStream is a concurrent-safe in-memory event sink, usable with
// both the real runtime (WithEvents) and the simulator
// (WithSimEvents).
type EventStream = telemetry.SyncStream

// NewEventStream creates an empty concurrent-safe event stream.
func NewEventStream() *EventStream { return telemetry.NewSyncStream() }

// ProvenanceRecord is one per-chunk provenance record: executing
// processor, owning queue, stolen flag, and the chunk's cost
// decomposition (exact for simulator streams, compute-only for the
// real runtime).
type ProvenanceRecord = telemetry.Prov

// ProvenanceSink consumes provenance records as chunks complete.
type ProvenanceSink = telemetry.ProvSink

// ProvenanceStream is a concurrent-safe in-memory provenance sink,
// usable with both the real runtime (WithProvenance) and the simulator
// (WithSimProvenance accepts any ProvenanceSink).
type ProvenanceStream = telemetry.SyncProvStream

// NewProvenanceStream creates an empty concurrent-safe provenance
// stream.
func NewProvenanceStream() *ProvenanceStream { return telemetry.NewSyncProvStream() }

// QueueDepthSample is one timed per-queue backlog sample from
// WithQueueDepthSampling.
type QueueDepthSample = core.QueueDepths

// MetricsRegistry holds named counters, gauges and histograms with
// per-step time-series snapshots.
type MetricsRegistry = telemetry.Registry

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// TraceReport is the result of verifying an event stream against the
// paper's correctness invariants.
type TraceReport = telemetry.Report

// CheckTrace verifies an event stream: every iteration executes
// exactly once per phase, an iteration migrates at most once per
// phase, and steals are legal (non-empty chunk, real victim).
func CheckTrace(events []TelemetryEvent) *TraceReport { return telemetry.Check(events) }

// WriteChromeTrace renders an event stream in Chrome trace-event
// format (chrome://tracing / Perfetto). For real-runtime streams use
// timeScale 1e-3 (ns → µs); for simulator streams use
// 1e6 / machine.CyclesPerSec, or 1.0 to display raw cycles.
func WriteChromeTrace(w io.Writer, events []TelemetryEvent, label string, procs int, timeScale float64) error {
	return telemetry.WriteChromeTrace(w, events, telemetry.ChromeOptions{
		Label: label, Procs: procs, TimeScale: timeScale,
	})
}

// SimOption tunes one Simulate run, mirroring ParallelFor's variadic
// option style.
type SimOption func(*sim.Options)

// WithSimSeed sets the deterministic jitter seed; equal seeds give
// bit-identical runs.
func WithSimSeed(seed uint64) SimOption {
	return func(o *sim.Options) { o.Seed = seed }
}

// WithSimStartDelay gives each processor extra cycles before it starts
// fetching work in step 0 (the §4.5 delayed-start experiments).
func WithSimStartDelay(delays ...float64) SimOption {
	return func(o *sim.Options) { o.StartDelay = delays }
}

// simObserve adds obs to the run's observer.
func simObserve(obs telemetry.Observer) SimOption {
	return func(o *sim.Options) { o.Observer = telemetry.TeeObservers(o.Observer, obs) }
}

// WithSimEvents attaches a telemetry sink receiving the structured
// event stream, every queue wait included (the simulator is
// single-threaded, so an unsynchronised stream is fine).
func WithSimEvents(s EventSink) SimOption {
	return simObserve(telemetry.ObserveEvents(s))
}

// WithSimMetrics attaches a metrics registry snapshotted at every step
// barrier; its wait histograms are queue_wait_cycles and
// steal_latency_cycles.
func WithSimMetrics(r *MetricsRegistry) SimOption {
	return simObserve(telemetry.ObserveMetrics(r, "cycles"))
}

// WithSimProvenance attaches a provenance sink receiving one record
// per executed chunk with its exact cost decomposition.
func WithSimProvenance(s ProvenanceSink) SimOption {
	return simObserve(telemetry.ObserveProv(s))
}

// WithSimActiveProcs models a space-sharing OS growing and shrinking
// the application's processor partition between steps (clamped to
// [1, P]).
func WithSimActiveProcs(f func(step int) int) SimOption {
	return func(o *sim.Options) { o.ActiveProcs = f }
}

// WithSimCacheFlush invalidates every processor's cache after each
// group of that many steps — modelling a time-sharing quantum
// corrupting the caches (§2.1, §6).
func WithSimCacheFlush(everySteps int) SimOption {
	return func(o *sim.Options) { o.FlushEverySteps = everySteps }
}

// WithSimOptions applies a whole SimOptions struct at once — the
// migration path for code written against the deprecated SimulateOpts.
func WithSimOptions(opts SimOptions) SimOption {
	return func(o *sim.Options) { *o = opts }
}

// Simulate runs prog on p simulated processors of m under s.
func Simulate(m *Machine, p int, s Scheduler, prog SimProgram, opts ...SimOption) (SimResult, error) {
	var o sim.Options
	for _, opt := range opts {
		opt(&o)
	}
	return sim.RunOpts(m, p, s, prog, o)
}
