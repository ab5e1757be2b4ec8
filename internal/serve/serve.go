// Package serve turns the loop-scheduling runtime into a long-running
// multi-tenant service: loop jobs arrive as serializable job.Specs
// against named pre-registered kernels (loop bodies cannot cross the
// wire), pass a per-tenant admission pipeline — token-bucket quotas
// for absolute rate, a start-time weighted fair queue for proportional
// sharing, a bounded backlog that sheds (HTTP 429 + Retry-After)
// rather than queue unboundedly — and dispatch onto a pool of
// pool.Executor shards keyed by scheduler×procs, so the paper's
// affinity state (⌈N/P⌉ ownership, per-worker queues, warmed caches)
// persists fleet-wide across jobs that share a shard, exactly as the
// engine's dispatcher cache persists it across phases.
//
// The HTTP surface is NewHandler; the Go client is repro/serveclient;
// the daemon is cmd/loopserved.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/livemetrics"
	"repro/internal/pool"
	"repro/internal/spantrace"
)

// ErrClosed is returned by submissions against a closed server; its
// dynamic type is *core.ClosedError (the executor's close sentinel),
// and the HTTP layer maps it to 503.
var ErrClosed = pool.ErrClosed

// ShedError reports an admission refusal under overload: the job was
// never queued, and the client should retry no sooner than RetryAfter.
// The HTTP layer maps it to 429 with a Retry-After header.
type ShedError struct {
	Tenant string
	// Reason is "quota" (token bucket dry) or "backlog" (queue at its
	// depth bound).
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("serve: tenant %q shed (%s), retry after %v", e.Tenant, e.Reason, e.RetryAfter)
}

// RejectError reports a job refused as invalid (bad spec, unknown
// kernel or scheduler). The HTTP layer maps it to 400.
type RejectError struct{ Err error }

func (e *RejectError) Error() string { return "serve: rejected: " + e.Err.Error() }
func (e *RejectError) Unwrap() error { return e.Err }

// ParseTenants decodes a tenant-policy flag value: comma-separated
// NAME:WEIGHT:RATE:BURST entries with trailing fields optional
// (weight defaults to 1, rate 0 = no quota, burst max(1, rate)).
// Errors are prefixed with flagName, the internal/cli convention.
func ParseTenants(flagName, val string) (map[string]TenantConfig, error) {
	out := make(map[string]TenantConfig)
	if strings.TrimSpace(val) == "" {
		return out, nil
	}
	for _, ent := range strings.Split(val, ",") {
		parts := strings.Split(strings.TrimSpace(ent), ":")
		if parts[0] == "" {
			return nil, fmt.Errorf("%s: entry %q has no tenant name", flagName, ent)
		}
		var tc TenantConfig
		fields := []*float64{&tc.Weight, &tc.Rate, &tc.Burst}
		if len(parts)-1 > len(fields) {
			return nil, fmt.Errorf("%s: entry %q has more than name:weight:rate:burst", flagName, ent)
		}
		for i, p := range parts[1:] {
			v, err := strconv.ParseFloat(p, 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("%s: entry %q field %d: want a non-negative number, got %q", flagName, ent, i+1, p)
			}
			*fields[i] = v
		}
		out[parts[0]] = tc
	}
	return out, nil
}

// TenantConfig is one tenant's admission policy.
type TenantConfig struct {
	// Weight is the tenant's fair-queue share relative to other
	// backlogged tenants; <= 0 means 1.
	Weight float64 `json:"weight"`
	// Rate is the token-bucket refill in jobs/second; 0 means no quota.
	Rate float64 `json:"rate_per_sec"`
	// Burst is the bucket capacity; 0 means max(1, Rate).
	Burst float64 `json:"burst"`
}

// Options configures a Server.
type Options struct {
	// Procs is the worker count for shards whose spec does not pin one;
	// 0 means GOMAXPROCS.
	Procs int
	// QueueLimit bounds the admission backlog (jobs admitted past their
	// quota but not yet dispatched); 0 means 256. At the bound, arrivals
	// shed.
	QueueLimit int
	// Dispatchers is the number of concurrent dispatch lanes pulling
	// from the fair queue; 0 means 1. One lane gives strict SFQ order
	// (deterministic fairness); more lanes trade ordering strictness
	// for shard-level parallelism.
	Dispatchers int
	// Tenants maps tenant names to their policy; absent tenants get
	// the zero policy (weight 1, no quota).
	Tenants map[string]TenantConfig
	// Plane, when set, receives per-tenant admission telemetry and is
	// attached to every shard executor. Caller-owned.
	Plane *livemetrics.Plane
	// Tracer, when set, is attached to every shard executor.
	Tracer *spantrace.Tracer
	// Now overrides the admission clock (tests, deterministic CI
	// gates); default time.Now. Dispatch deadlines still use host time.
	Now func() time.Time
}

// submission is one job's state threaded from admission to dispatch.
// Its dispatcher (or Close) stores res, then closes done.
type submission struct {
	run    *job.Runnable
	cfg    core.Config
	key    shardKey
	tenant string
	ctx    context.Context
	res    Result
	done   chan struct{}
	// taken is claimed once, by the dispatcher that runs the job, by
	// Close, or by a submitter withdrawing it, so the job reaches
	// exactly one admission outcome.
	taken atomic.Bool
}

// Result is one completed submission.
type Result struct {
	Tenant    string        `json:"tenant"`
	Scheduler string        `json:"scheduler"`
	Procs     int           `json:"procs"`
	Shard     string        `json:"shard"`
	Wait      time.Duration `json:"wait_ns"`
	Stats     core.Stats    `json:"-"`
	Checksum  float64       `json:"checksum"`
	err       error
}

// shardKey identifies one executor shard: jobs sharing a scheduler and
// worker count land on the same long-lived pool, so AFS ownership and
// cache warmth persist across them.
type shardKey struct {
	sched string
	procs int
}

func (k shardKey) String() string { return fmt.Sprintf("%s×%d", k.sched, k.procs) }

// shard is one executor with its key's name, formatted once.
type shard struct {
	*pool.Executor
	name string
}

// Server is the multi-tenant loop-scheduling service. Create with New,
// submit from any number of goroutines (directly or via the HTTP
// handler), Close when done.
type Server struct {
	opts   Options
	now    func() time.Time
	plane  *livemetrics.Plane
	tracer *spantrace.Tracer

	q  *wfq
	wg sync.WaitGroup

	mu      sync.Mutex
	buckets map[string]*bucket
	shards  map[shardKey]*shard
	order   []shardKey

	closed     atomic.Bool
	dispatched atomic.Int64
}

// New starts a server: the fair queue, its dispatch lanes, and an
// (initially empty) shard pool.
func New(opts Options) (*Server, error) {
	if opts.Procs < 0 {
		return nil, fmt.Errorf("serve: Procs must be >= 0, got %d", opts.Procs)
	}
	if opts.Procs == 0 {
		opts.Procs = runtime.GOMAXPROCS(0)
	}
	if opts.QueueLimit <= 0 {
		opts.QueueLimit = 256
	}
	if opts.Dispatchers <= 0 {
		opts.Dispatchers = 1
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	if opts.Plane != nil && opts.Tracer != nil {
		// Exemplars in the plane resolve to span trees, as in repro's
		// executor wiring.
		opts.Plane.SetTracer(opts.Tracer)
	}
	s := &Server{
		opts:    opts,
		now:     now,
		plane:   opts.Plane,
		tracer:  opts.Tracer,
		q:       newWFQ(opts.QueueLimit),
		buckets: make(map[string]*bucket),
		shards:  make(map[shardKey]*shard),
	}
	s.wg.Add(opts.Dispatchers)
	for i := 0; i < opts.Dispatchers; i++ {
		go s.dispatch()
	}
	return s, nil
}

func tenantName(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

func (s *Server) observe(tenant string, wait time.Duration, outcome livemetrics.AdmitOutcome) {
	if s.plane != nil {
		s.plane.ObserveAdmission(tenant, wait, outcome)
	}
}

// Submit runs one job through the full pipeline — validate, quota,
// fair queue, shard dispatch — and blocks until it completes, sheds,
// or the context is done. Error taxonomy: *RejectError (invalid),
// *ShedError (overload; retry later), ErrClosed (server shut down),
// *pool.PanicError (kernel body panicked), or the context's error.
func (s *Server) Submit(ctx context.Context, spec job.Spec) (Result, error) {
	tenant := tenantName(spec.Tenant)
	if s.closed.Load() {
		return Result{}, ErrClosed
	}
	run, err := job.Build(spec)
	if err != nil {
		s.observe(tenant, 0, livemetrics.AdmitRejected)
		return Result{}, &RejectError{Err: err}
	}
	cfg, err := spec.Config()
	if err != nil {
		s.observe(tenant, 0, livemetrics.AdmitRejected)
		return Result{}, &RejectError{Err: err}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if d := spec.Deadline(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	now := s.now()
	tc := s.opts.Tenants[tenant]
	s.mu.Lock()
	b, ok := s.buckets[tenant]
	if !ok {
		b = newBucket(tc.Rate, tc.Burst, now)
		s.buckets[tenant] = b
	}
	admit, retry := b.take(now)
	s.mu.Unlock()
	if !admit {
		s.observe(tenant, 0, livemetrics.AdmitShed)
		return Result{}, &ShedError{Tenant: tenant, Reason: "quota", RetryAfter: retry}
	}

	procs := spec.Procs
	if procs <= 0 {
		procs = s.opts.Procs
	}
	// cfg.Spec.Name is the resolved scheduler, the AFS default applied.
	key := shardKey{sched: cfg.Spec.Name, procs: procs}
	j := &submission{run: run, cfg: cfg, key: key, tenant: tenant, ctx: ctx, done: make(chan struct{})}
	en := s.q.push(j, tc.Weight, now)
	if en == nil {
		if s.closed.Load() {
			return Result{}, ErrClosed
		}
		s.observe(tenant, 0, livemetrics.AdmitShed)
		// The backlog gives no per-tenant refill signal; advise one
		// dispatch interval's worth of backoff per queued job ahead.
		return Result{}, &ShedError{Tenant: tenant, Reason: "backlog", RetryAfter: time.Second}
	}

	select {
	case <-j.done:
		return j.res, j.res.err
	case <-ctx.Done():
		// Withdrawn while queued, or cancelled mid-run: the shard sees
		// the same ctx and cancels at chunk granularity, and its result
		// is discarded. Only a job no dispatcher took is rejected, and
		// it leaves the backlog at once; a taken one was already
		// counted as admitted.
		if j.taken.CompareAndSwap(false, true) {
			s.q.remove(en)
			s.observe(tenant, 0, livemetrics.AdmitRejected)
		}
		return Result{}, ctx.Err()
	}
}

// dispatch is one lane: pull jobs in fair order, run each on its
// shard, deliver the result.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		en := s.q.pop()
		if en == nil {
			return
		}
		j := en.e
		if j.ctx.Err() != nil || !j.taken.CompareAndSwap(false, true) {
			continue // withdrawn while queued; its submitter records it
		}
		wait := s.now().Sub(en.enqueued)
		s.observe(j.tenant, wait, livemetrics.AdmitAdmitted)
		j.res = s.run(j, wait)
		if j.res.err == nil {
			s.dispatched.Add(1)
			if s.plane != nil {
				s.plane.ObserveTenantCompletion(j.tenant)
			}
		}
		close(j.done)
	}
}

func (s *Server) run(j *submission, wait time.Duration) Result {
	sh, err := s.shard(j.key)
	if err != nil {
		return Result{err: err}
	}
	st, err := sh.SubmitPhases(j.ctx, j.cfg, j.run.Phases, j.run.N, j.run.Body)
	return Result{
		Tenant:    j.tenant,
		Scheduler: j.key.sched,
		Procs:     j.key.procs,
		Shard:     sh.name,
		Wait:      wait,
		Stats:     st,
		Checksum:  j.run.Checksum(),
		err:       err,
	}
}

// shard returns the executor for a key, creating it on first use —
// the fleet-wide analogue of the engine caching its AFS dispatcher by
// spec×procs: every future job with this scheduler and worker count
// reuses the shard's persistent ownership state.
func (s *Server) shard(key shardKey) (*shard, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if sh, ok := s.shards[key]; ok {
		return sh, nil
	}
	x, err := pool.New(key.procs)
	if err != nil {
		return nil, &RejectError{Err: err}
	}
	if s.plane != nil {
		x.SetObservability(s.plane)
	}
	if s.tracer != nil {
		x.SetTracer(s.tracer)
	}
	sh := &shard{Executor: x, name: key.String()}
	s.shards[key] = sh
	s.order = append(s.order, key)
	return sh, nil
}

// TenantStatus is one tenant's live admission policy and bucket level.
type TenantStatus struct {
	Tenant string  `json:"tenant"`
	Weight float64 `json:"weight"`
	Rate   float64 `json:"rate_per_sec"`
	Burst  float64 `json:"burst"`
	Tokens float64 `json:"tokens"`
}

// ShardStatus is one executor shard.
type ShardStatus struct {
	Shard       string `json:"shard"`
	Scheduler   string `json:"scheduler"`
	Procs       int    `json:"procs"`
	Submissions int64  `json:"submissions"`
}

// Status is the server's introspection snapshot (the /status
// endpoint).
type Status struct {
	Queued     int            `json:"queued"`
	QueueLimit int            `json:"queue_limit"`
	Dispatched int64          `json:"dispatched"`
	Closed     bool           `json:"closed"`
	Tenants    []TenantStatus `json:"tenants,omitempty"`
	Shards     []ShardStatus  `json:"shards,omitempty"`
}

// Status reports queue depth, dispatch totals, per-tenant bucket
// levels, and the shard pool.
func (s *Server) Status() Status {
	st := Status{
		Queued:     s.q.depth(),
		QueueLimit: s.opts.QueueLimit,
		Dispatched: s.dispatched.Load(),
		Closed:     s.closed.Load(),
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, b := range s.buckets {
		tc := s.opts.Tenants[name]
		w := tc.Weight
		if w <= 0 {
			w = 1
		}
		tokens := b.tokens
		if b.rate > 0 {
			if dt := now.Sub(b.last).Seconds(); dt > 0 {
				tokens = minf(b.burst, tokens+dt*b.rate)
			}
		}
		st.Tenants = append(st.Tenants, TenantStatus{
			Tenant: name, Weight: w, Rate: b.rate, Burst: b.burst, Tokens: tokens,
		})
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	for _, key := range s.order {
		st.Shards = append(st.Shards, ShardStatus{
			Shard: s.shards[key].name, Scheduler: key.sched, Procs: key.procs,
			Submissions: s.shards[key].Submissions(),
		})
	}
	return st
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Close drains: new submissions fail with ErrClosed, queued jobs that
// never reached a dispatcher fail with ErrClosed, in-flight jobs
// finish, then every shard executor shuts down. Idempotent.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	for _, en := range s.q.close() {
		if en.e.taken.CompareAndSwap(false, true) {
			s.observe(en.e.tenant, 0, livemetrics.AdmitRejected)
		}
		en.e.res = Result{err: ErrClosed}
		close(en.e.done)
	}
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards {
		sh.Close()
	}
	return nil
}

// HTTPStatus maps a Submit error to its HTTP status; shared by the
// handler, the perflab shed gate, and tests. 0 means no error.
func HTTPStatus(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, ErrClosed):
		return 503
	default:
		var shed *ShedError
		var rej *RejectError
		var pe *pool.PanicError
		switch {
		case errors.As(err, &shed):
			return 429
		case errors.As(err, &rej):
			return 400
		case errors.As(err, &pe):
			return 500
		}
		return 500
	}
}
