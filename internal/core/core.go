// Package core is the real-execution engine for the paper's loop
// scheduling algorithms: a work-sharing parallel-for runtime built on
// goroutines, with per-worker work queues, most-loaded stealing, and
// synchronisation-operation accounting.
//
// Where internal/sim *models* a 1992 multiprocessor, core actually runs
// the loop body on the host. Go cannot portably pin goroutines to
// processors, so hardware cache affinity is advisory rather than
// guaranteed (see DESIGN.md §2); the scheduling protocol, queue
// contention, load-balancing and delayed-start behaviour are real.
package core

import (
	"context"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Config selects the workers and the scheduling algorithm for a Run.
type Config struct {
	// Procs is the number of worker goroutines (default
	// runtime.GOMAXPROCS(0)). Under a persistent Engine it instead
	// selects how many of the engine's workers participate (0 = all).
	Procs int
	// Ctx, when non-nil, cancels the run: dispatch stops at chunk
	// granularity (in-flight chunks finish), the phase barrier drains
	// cleanly, and Run returns the context's error alongside partial
	// Stats. Cancellation is a poll, with no callback registered: each
	// worker checks Ctx.Done() without blocking before every chunk
	// fetch, and the submitter checks it after every phase barrier. A
	// context whose Done() is nil (context.Background) is never
	// polled. nil means context.Background().
	Ctx context.Context
	// Spec selects the scheduling algorithm (see internal/sched).
	Spec sched.Spec
	// CostHint estimates iteration i's cost in phase ph, enabling the
	// BEST-STATIC oracle partitioner. nil falls back to uniform costs.
	CostHint func(ph, i int) float64
	// MinChunk sets a floor on the iterations handed out per queue
	// operation (the "grain"), for loops whose bodies are too cheap to
	// justify per-chunk dispatch. 0 means no floor. Applies to the
	// central-queue algorithms and to AFS's local takes and steals.
	MinChunk int
	// StartDelay holds per-worker delays applied before the first
	// phase, reproducing the §4.5 non-uniform start-time experiments.
	StartDelay []time.Duration
	// Observer, when non-nil, receives the submission's
	// instrumentation: one telemetry.Prov per executed chunk and a
	// telemetry.PhaseMark at each phase begin and barrier. A stolen
	// chunk's Prov starts at its steal's End and carries the steal's
	// length as QueueWait and its victim as Owner; a central-queue
	// chunk's QueueWait is its lock wait. Chunk is called inline from
	// workers, so the observer MUST be safe for concurrent use and
	// cheap. Compose several consumers (telemetry.ObserveEvents,
	// ObserveProv, ObserveMetrics, the live plane, the span tracer)
	// with telemetry.TeeObservers. nil costs the hot path one pointer
	// check per chunk.
	Observer Observer
}

// Observer is the runtime's single instrumentation surface; see
// telemetry.Observer for the record shapes and the calling contract.
// The type lives in telemetry so consumers there and in the observing
// packages satisfy it without importing core.
type Observer = telemetry.Observer

func (c Config) procs() int {
	if c.Procs > 0 {
		return c.Procs
	}
	return runtime.GOMAXPROCS(0)
}

// Stats reports one Run's scheduling activity.
type Stats struct {
	// Elapsed is the wall-clock duration of the whole Run.
	Elapsed time.Duration
	// CentralOps counts successful chunk removals from the central
	// dispenser (central-queue algorithms and MOD-FACTORING).
	CentralOps int64
	// LocalOps[q]/RemoteOps[q] count removals from worker q's queue by
	// its owner / by thieves (AFS family).
	LocalOps  []int64
	RemoteOps []int64
	// Steals counts steal operations; MigratedIters the iterations they
	// moved.
	Steals        int64
	MigratedIters int64
	// Phases executed and iterations executed in total.
	Phases     int
	Iterations int64
}

// TotalSyncOps sums all successful queue-removal operations.
func (s Stats) TotalSyncOps() int64 {
	t := s.CentralOps
	for _, v := range s.LocalOps {
		t += v
	}
	for _, v := range s.RemoteOps {
		t += v
	}
	return t
}

// ParallelFor executes body(i) for i in [0, n) under cfg and returns
// scheduling statistics.
func ParallelFor(cfg Config, n int, body func(i int)) (Stats, error) {
	return Run(cfg, 1, func(int) int { return n }, func(_, i int) { body(i) })
}

// Run executes a phased computation: for ph in [0, phases), a parallel
// loop of n(ph) iterations invoking body(ph, i), with a barrier between
// phases (the paper's parallel-loop-in-sequential-loop shape). Workers
// persist across phases so AFS's deterministic assignment gives each
// worker the same iterations every phase.
//
// Run is the one-shot lifetime of the dispatch/steal engine: it wraps
// a transient Engine — create, execute one submission, tear down. The
// persistent lifetime (workers and affinity state surviving across
// submissions) is Engine itself, surfaced publicly as repro.Executor
// via internal/pool.
func Run(cfg Config, phases int, n func(ph int) int, body func(ph, i int)) (Stats, error) {
	e, err := NewEngine(cfg.procs())
	if err != nil {
		return Stats{}, err
	}
	defer e.Close()
	res, err := e.Execute(cfg, phases, n, body)
	if res.Panic != nil {
		// A crashing loop body behaves like it would in a plain
		// sequential for-loop rather than killing an anonymous
		// goroutine.
		panic(res.Panic)
	}
	return res.Stats, err
}

// runner carries the per-submission execution state: stats, the
// observer, the phase barrier, and the abort/cancel/panic flags. An
// Engine keeps one and resets it for each submission (reset), so
// nothing here outlives or leaks across submissions on a shared
// Engine.
type runner struct {
	cfg   Config
	p     int
	d     dispatcher
	body  func(ph, i int)
	stats Stats
	t0    time.Time
	obs   Observer
	// done is cfg.Ctx's Done channel, polled before each chunk fetch;
	// nil for a context that never cancels.
	done <-chan struct{}
	// lastOps is the counters' value at the previous barrier, so each
	// barrier mark reports only its phase's growth.
	lastOps telemetry.OpCounts
	phaseWG sync.WaitGroup
	aborted atomic.Bool
	// cancelled distinguishes a context cancellation from a body panic
	// (both set aborted to stop dispatch at chunk granularity).
	cancelled atomic.Bool
	// delayPending[w] is true until worker w has applied its
	// cfg.StartDelay (§4.5); only worker w touches its slot.
	delayPending []bool
	panicMu      sync.Mutex
	panic        any // first panic value observed in any worker
}

// reset readies r for a new submission on p workers. The stats'
// per-queue counters are fresh, because they escape in the Result;
// LocalOps and RemoteOps share one allocation.
func (r *runner) reset(cfg Config, p int, d dispatcher, body func(ph, i int), done <-chan struct{}) {
	*r = runner{cfg: cfg, p: p, d: d, body: body, obs: cfg.Observer, done: done}
	ops := make([]int64, 2*p)
	r.stats.LocalOps, r.stats.RemoteOps = ops[:p:p], ops[p:]
	if len(cfg.StartDelay) > 0 {
		r.delayPending = make([]bool, p)
		for w := range r.delayPending {
			r.delayPending[w] = true
		}
	}
}

// pollCancel reports whether the submission's context is done,
// without blocking; once it is, it marks the run cancelled so every
// worker stops fetching.
func (r *runner) pollCancel() bool {
	if r.done == nil {
		return false
	}
	select {
	case <-r.done:
		r.cancelled.Store(true)
		r.aborted.Store(true)
		return true
	default:
		return false
	}
}

// delayOnce applies worker w's configured start delay on its first
// task for this submission.
func (r *runner) delayOnce(w int) {
	if w >= len(r.delayPending) || !r.delayPending[w] {
		return
	}
	r.delayPending[w] = false
	if w < len(r.cfg.StartDelay) && r.cfg.StartDelay[w] > 0 {
		time.Sleep(r.cfg.StartDelay[w])
	}
}

// nowNS is the telemetry clock: nanoseconds since the run started.
// Real-runtime only: this clock stamps measured host events and never
// feeds a scheduling or simulated-cost decision.
//
//lint:allow determinism the real runtime measures host time by design; the simulator has its own cycle clock
func (r *runner) nowNS() float64 { return float64(time.Since(r.t0)) }

// work is one worker's phase loop: fetch a chunk, execute it, repeat.
// A panic in the body is captured — the remaining workers stop fetching
// new chunks, the phase barrier still completes, and Run re-panics with
// the original value so a crashing loop body behaves like it would in a
// plain sequential for-loop rather than killing an anonymous goroutine.
func (r *runner) work(w, ph int) {
	defer func() {
		if p := recover(); p != nil {
			r.panicMu.Lock()
			if r.panic == nil {
				r.panic = p
			}
			r.panicMu.Unlock()
			r.aborted.Store(true)
		}
	}()
	for !r.aborted.Load() && !r.pollCancel() {
		c, fm, ok := r.d.fetch(r, w)
		if !ok {
			return
		}
		if r.obs != nil {
			// A steal's closing clock read also opens its chunk's
			// window, so a stolen Prov is the steal's one record.
			start := fm.start
			if !fm.stolen {
				start = r.nowNS()
			}
			for i := c.Lo; i < c.Hi; i++ {
				r.body(ph, i)
			}
			end := r.nowNS()
			// The host cannot split memory stalls out of the window,
			// so the whole span is reported as Compute.
			r.obs.Chunk(telemetry.Prov{
				Step: ph, Proc: w, Owner: fm.owner, Stolen: fm.stolen,
				Lo: c.Lo, Hi: c.Hi, Start: start, End: end,
				QueueWait: fm.wait, Compute: end - start,
			})
		} else {
			for i := c.Lo; i < c.Hi; i++ {
				r.body(ph, i)
			}
		}
		atomic.AddInt64(&r.stats.Iterations, int64(c.Len()))
	}
}

// depthSampler is implemented by dispatchers that can report their
// queues' backlog concurrently with execution (Engine.QueueDepths).
type depthSampler interface {
	depths() []int
}

// phaseOps returns the counters' growth since the previous barrier.
// Called at the barrier (no worker is in a phase), so the reads are
// race-free; the scalar counters still go through atomic loads to keep
// one access discipline per field (the per-element LocalOps/RemoteOps
// reads stay plain — the barrier is their correctness argument).
func (r *runner) phaseOps() telemetry.OpCounts {
	now := telemetry.OpCounts{
		CentralOps:    atomic.LoadInt64(&r.stats.CentralOps),
		Steals:        atomic.LoadInt64(&r.stats.Steals),
		MigratedIters: atomic.LoadInt64(&r.stats.MigratedIters),
		Iterations:    atomic.LoadInt64(&r.stats.Iterations),
	}
	for i := range r.stats.LocalOps {
		now.LocalOps += r.stats.LocalOps[i]
		now.RemoteOps += r.stats.RemoteOps[i]
	}
	d := now.Sub(r.lastOps)
	r.lastOps = now
	return d
}

// A dispatcher hands out chunks to workers for the current phase.
type dispatcher interface {
	initPhase(r *runner, ph, n int)
	fetch(r *runner, w int) (sched.Chunk, fetchMeta, bool)
}

// fetchMeta describes where a fetched chunk came from, for provenance.
type fetchMeta struct {
	owner  int     // owning queue index, or -1 for central dispensers
	stolen bool    // chunk migrated from owner's queue to the fetcher
	wait   float64 // measured dispatch wait in ns (0 when unmeasured)
	start  float64 // stolen chunks: the steal's end in ns, the chunk's start
}

// centralDispatch serialises all workers through one mutex-protected
// dispenser — the central work queue of SS/GSS/FACTORING/TRAPEZOID etc.
type centralDispatch struct {
	mu      sync.Mutex
	sizer   sched.Sizer
	disp    *sched.Dispenser
	waiters int64
}

func (d *centralDispatch) initPhase(r *runner, ph, n int) {
	// Under the lock: Engine.QueueDepths may read d.disp concurrently
	// with the phase transition.
	d.mu.Lock()
	d.disp = sched.NewDispenser(d.sizer, n, r.p)
	d.mu.Unlock()
}

// depths reports the central dispenser's remaining iterations as a
// single-queue backlog sample.
func (d *centralDispatch) depths() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.disp == nil {
		return []int{0}
	}
	return []int{d.disp.Remaining()}
}

func (d *centralDispatch) fetch(r *runner, w int) (sched.Chunk, fetchMeta, bool) {
	fm := fetchMeta{owner: -1}
	atomic.AddInt64(&d.waiters, 1)
	var lockStart float64
	if r.obs != nil {
		lockStart = r.nowNS()
	}
	d.mu.Lock()
	if r.obs != nil {
		fm.wait = r.nowNS() - lockStart
	}
	waiting := atomic.AddInt64(&d.waiters, -1)
	if ag, isAdaptive := d.sizer.(*sched.AdaptiveGSS); isAdaptive {
		ag.SetContention(int(waiting))
	}
	c, ok := d.disp.Next()
	d.mu.Unlock()
	if ok {
		atomic.AddInt64(&r.stats.CentralOps, 1)
	}
	return c, fm, ok
}

// staticDispatch precomputes the whole assignment; fetch is
// synchronisation-free.
type staticDispatch struct {
	best     bool
	costHint func(ph, i int) float64
	assign   sched.Assignment
	next     []int32
	ph       int
}

func (d *staticDispatch) initPhase(r *runner, ph, n int) {
	d.ph = ph
	if d.best && d.costHint != nil {
		d.assign = sched.BestStatic(n, r.p, func(i int) float64 { return d.costHint(ph, i) })
	} else {
		d.assign = sched.Static(n, r.p)
	}
	d.next = make([]int32, r.p)
}

func (d *staticDispatch) fetch(r *runner, w int) (sched.Chunk, fetchMeta, bool) {
	chs := d.assign[w]
	i := int(d.next[w]) // next is only touched by worker w during a phase
	if i >= len(chs) {
		return sched.Chunk{}, fetchMeta{}, false
	}
	d.next[w]++
	return chs[i], fetchMeta{owner: w}, true
}

// afsDispatch implements affinity scheduling over real per-worker
// queues: each queue has its own mutex, queue lengths are published
// with atomics so victim selection needs no locks (§2.2 footnote 4),
// and stolen work is executed directly (an iteration migrates at most
// once). The victim policy is configurable (most-loaded, random,
// power-of-two); randomized policies use per-worker generators so the
// hot path stays contention-free.
type afsDispatch struct {
	afs      sched.AFS
	victim   sched.VictimPolicy
	minChunk int
	queues   []afsQueue
	rngs     []workerRNG
	// lens holds every worker's steal-scan snapshot of the queue
	// lengths, lensStride ints apart (see scanLens).
	lens       []int
	lensStride int
}

// scanLens is worker w's scratch for the steal scan's length
// snapshot. Each worker's span is the queue count rounded up to whole
// cache lines plus one line of padding, so no two workers' snapshots
// share a line.
func (d *afsDispatch) scanLens(w int) []int {
	return d.lens[w*d.lensStride : w*d.lensStride+len(d.queues)]
}

// cacheLineInts is the number of ints in a 64-byte cache line.
const cacheLineInts = 64 * 8 / bits.UintSize

// grained raises an amount to the configured chunk floor.
func (d *afsDispatch) grained(amt int) int {
	if amt < d.minChunk {
		return d.minChunk
	}
	return amt
}

// workerRNG is a padded splitmix64 state, one per worker.
type workerRNG struct {
	state uint64
	_     [7]uint64
}

func (r *workerRNG) next(n int) int {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

type afsQueue struct {
	mu  sync.Mutex
	q   sched.Queue
	len atomic.Int64
	_   [4]uint64 // reduce false sharing between neighbouring queues
}

func newAFSDispatch(p int, a sched.AFS, victim sched.VictimPolicy) *afsDispatch {
	stride := (p+cacheLineInts-1)/cacheLineInts*cacheLineInts + cacheLineInts
	d := &afsDispatch{afs: a, victim: victim, queues: make([]afsQueue, p), rngs: make([]workerRNG, p),
		lens: make([]int, p*stride), lensStride: stride}
	for w := range d.rngs {
		d.rngs[w].state = uint64(w+1) * 0x9e3779b97f4a7c15
	}
	return d
}

func (d *afsDispatch) initPhase(r *runner, ph, n int) {
	for i := range d.queues {
		q := &d.queues[i]
		q.q.Reset()
		q.q.Push(sched.StaticBlock(i, n, r.p))
		q.len.Store(int64(q.q.Len()))
	}
}

// depths snapshots every worker queue's backlog from the
// atomically-published lengths — lock-free, safe mid-phase.
func (d *afsDispatch) depths() []int {
	out := make([]int, len(d.queues))
	for i := range d.queues {
		out[i] = int(d.queues[i].len.Load())
	}
	return out
}

func (d *afsDispatch) fetch(r *runner, w int) (sched.Chunk, fetchMeta, bool) {
	self := &d.queues[w]
	for {
		// Local take: 1/k of our own queue.
		if self.len.Load() > 0 {
			self.mu.Lock()
			if l := self.q.Len(); l > 0 {
				amt := d.grained(d.afs.LocalAmount(l, r.p))
				c, _ := self.q.TakeFront(amt)
				self.len.Store(int64(self.q.Len()))
				self.mu.Unlock()
				atomic.AddInt64(&r.stats.LocalOps[w], 1)
				return c, fetchMeta{owner: w}, true
			}
			self.mu.Unlock()
		}
		// Steal: 1/P of a victim chosen without locks from the
		// atomically-published lengths.
		lens := d.scanLens(w)
		empty := true
		for i := range d.queues {
			lens[i] = int(d.queues[i].len.Load())
			if lens[i] > 0 {
				empty = false
			}
		}
		if empty {
			return sched.Chunk{}, fetchMeta{}, false // every queue is empty
		}
		victim := sched.ChooseVictim(d.victim, lens, w, d.rngs[w].next)
		if victim < 0 {
			return sched.Chunk{}, fetchMeta{}, false
		}
		vq := &d.queues[victim]
		var stealStart float64
		if r.obs != nil {
			stealStart = r.nowNS()
		}
		vq.mu.Lock()
		l := vq.q.Len()
		if l == 0 {
			vq.mu.Unlock()
			continue // raced with another thief; rescan
		}
		amt := d.grained(d.afs.StealAmount(l, r.p))
		c, _ := vq.q.TakeBack(amt)
		vq.len.Store(int64(vq.q.Len()))
		vq.mu.Unlock()
		atomic.AddInt64(&r.stats.RemoteOps[victim], 1)
		atomic.AddInt64(&r.stats.Steals, 1)
		atomic.AddInt64(&r.stats.MigratedIters, int64(c.Len()))
		fm := fetchMeta{owner: victim, stolen: true}
		if r.obs != nil {
			fm.start = r.nowNS()
			fm.wait = fm.start - stealStart
		}
		return c, fm, true
	}
}

// modfactDispatch serialises the §2.3 phase board behind one mutex.
type modfactDispatch struct {
	mu sync.Mutex
	mf *sched.ModFactoring
}

func (d *modfactDispatch) initPhase(r *runner, ph, n int) {
	d.mf.Init(n, r.p)
}

func (d *modfactDispatch) fetch(r *runner, w int) (sched.Chunk, fetchMeta, bool) {
	d.mu.Lock()
	c, ok := d.mf.Claim(w)
	d.mu.Unlock()
	if ok {
		atomic.AddInt64(&r.stats.CentralOps, 1)
	}
	return c, fetchMeta{owner: -1}, ok
}
