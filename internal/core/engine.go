package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// ClosedError is the typed error behind ErrClosed: a submission was
// admitted after Close. It carries a type (not just a sentinel string)
// so layered consumers can classify it structurally — internal/serve
// maps it to HTTP 503 with errors.As — while errors.Is(err, ErrClosed)
// keeps working for existing callers.
type ClosedError struct{}

func (*ClosedError) Error() string { return "core: engine closed" }

// ErrClosed is returned by Engine.Execute for submissions admitted
// after Close. Its dynamic type is *ClosedError.
var ErrClosed error = &ClosedError{}

// Engine is the long-lived execution substrate shared by both API
// lifetimes: P persistent worker goroutines executing one loop
// submission at a time. The one-shot entry points (Run, ParallelFor)
// wrap a transient Engine — create, execute once, close — while
// internal/pool keeps one alive across many submissions so the
// deterministic ⌈N/P⌉ ownership mapping, the per-worker AFS queues and
// the workers' warmed caches persist between successive loops on the
// same index space (the paper's phase affinity, extended across API
// calls).
//
// Submissions are admitted in FIFO order (waiters on the admission
// baton are woken in arrival order) and executed one at a time, so
// each submission gets the full worker set and per-submission state —
// stats, observers, panics — never cross-talks.
type Engine struct {
	p      int
	turn   chan struct{} // admission baton, capacity 1
	starts []chan phaseTask
	wg     sync.WaitGroup
	closed bool // guarded by the baton

	// Cached AFS dispatcher: the per-worker queue array (and its
	// false-sharing padding) is the executor's persistent affinity
	// state, reused across submissions with the same algorithm and
	// worker count. Baton-holder-owned; initPhase rebuilds the queue
	// contents every phase, so staleness cannot leak between
	// submissions.
	afs      *afsDispatch
	afsName  string
	afsProcs int

	// depthSrc is the live queue-depth source for observers: the most
	// recent submission's dispatcher, when it supports concurrent depth
	// sampling. Written by the baton holder, read lock-free by
	// QueueDepths scrapers.
	depthSrc atomic.Value // depthBox

	// run is the per-submission state, reset by each baton holder in
	// turn. Workers touch it only between receiving a phase's task and
	// that phase's barrier, and cancellation is polled rather than
	// delivered by callback, so nothing touches it between submissions.
	run runner
}

// depthBox wraps a depthSampler so depthSrc always stores one concrete
// type (atomic.Value panics on inconsistent types).
type depthBox struct{ ds depthSampler }

// phaseTask tells a worker to run one phase of one submission. last
// marks the submission's final phase, after which no task follows
// until the next submission.
type phaseTask struct {
	r    *runner
	ph   int
	last bool
}

// pollBudget bounds how long a worker polls its start channel between
// two phases of one submission before it parks. The next phase's task
// usually arrives within one barrier hand-off, and catching it while
// still running skips the OS-level wake-up a parked worker costs on
// every phase. Bounded, because the workers and the submitter may
// share fewer CPUs than there are goroutines.
const pollBudget = 50 * time.Microsecond

// NewEngine starts p persistent workers. Callers own the engine and
// must Close it to stop them.
func NewEngine(p int) (*Engine, error) {
	if p < 1 {
		return nil, fmt.Errorf("core: need at least one worker, got %d", p)
	}
	e := &Engine{p: p, turn: make(chan struct{}, 1), starts: make([]chan phaseTask, p)}
	for w := 0; w < p; w++ {
		e.starts[w] = make(chan phaseTask, 1)
		e.wg.Add(1)
		go e.worker(w)
	}
	e.turn <- struct{}{}
	return e, nil
}

// Procs is the worker count fixed at creation.
func (e *Engine) Procs() int { return e.p }

// QueueDepths snapshots the per-queue backlog of the most recent
// submission's dispatcher: queued iterations per worker queue (AFS), or
// one entry of remaining iterations (central dispensers). Safe to call
// concurrently with execution from any goroutine; returns nil before
// the first depth-capable submission. Between submissions it reports
// the drained state of the last one (all zeros) — live scrapers treat
// that as an idle engine.
func (e *Engine) QueueDepths() []int {
	if b, ok := e.depthSrc.Load().(depthBox); ok {
		return b.ds.depths()
	}
	return nil
}

func (e *Engine) worker(w int) {
	defer e.wg.Done()
	runWorker(e.starts[w], w)
}

// runWorker runs worker w's tasks from ch until ch closes. After a
// submission's last phase the worker blocks at once, so an idle engine
// never spins; after any other phase it polls first (pollTask). It
// returns how often the worker yielded its CPU while polling.
func runWorker(ch <-chan phaseTask, w int) (yields int) {
	t, ok := <-ch
	for ok {
		t.r.delayOnce(w)
		t.r.work(w, t.ph)
		last := t.last
		t.r.phaseWG.Done()
		if last {
			t, ok = <-ch
			continue
		}
		var y int
		t, ok, y = pollTask(ch)
		yields += y
	}
	return yields
}

// pollTask receives the next phase of the running submission. It polls
// ch for up to pollBudget, yielding its CPU between polls, and then
// blocks; a submission that stopped early therefore leaves its workers
// parked too. yields counts the polls that found nothing.
func pollTask(ch <-chan phaseTask) (t phaseTask, ok bool, yields int) {
	start := time.Now()                  //lint:allow determinism the poll budget is host time between real phases; no schedule decision reads it
	for time.Since(start) < pollBudget { //lint:allow determinism the poll budget is host time between real phases; no schedule decision reads it
		select {
		case t, ok = <-ch:
			return t, ok, yields
		default:
		}
		yields++
		runtime.Gosched()
	}
	t, ok = <-ch
	return t, ok, yields
}

// Close stops the workers once the in-flight submission (and any
// submitter already waiting on the baton ahead of Close) completes.
// Submissions arriving after Close fail with ErrClosed. Close is
// idempotent.
func (e *Engine) Close() {
	<-e.turn
	if e.closed {
		e.turn <- struct{}{}
		return
	}
	e.closed = true
	for _, ch := range e.starts {
		close(ch)
	}
	e.wg.Wait()
	e.turn <- struct{}{}
}

// Result is one submission's outcome.
type Result struct {
	Stats Stats
	// Panic is the first panic value raised by the loop body, or nil.
	// The engine itself survives a panicking submission: workers
	// recover, the phase barrier drains, and subsequent submissions run
	// normally. The one-shot wrappers re-panic with this value;
	// internal/pool converts it to an error.
	Panic any
}

// Execute runs one phased loop submission to completion (or
// cancellation) on the engine's workers. It blocks until the
// submission finishes; concurrent callers are serialised FIFO.
//
// cfg.Procs selects how many of the engine's workers participate
// (<= Procs(); 0 or negative means all of them). cfg.Ctx cancels the
// submission at chunk granularity: in-flight chunks finish, no new
// chunks are dispatched, the barrier drains, and Execute returns the
// context's error alongside the partial Stats. Workers poll the
// context before each chunk fetch and the submitter polls it after
// each barrier; no callback is registered, so a context cancelled
// after Execute returns cannot reach a later submission.
func (e *Engine) Execute(cfg Config, phases int, n func(ph int) int, body func(ph, i int)) (Result, error) {
	p := cfg.Procs
	if p <= 0 {
		p = e.p
	}
	if p > e.p {
		return Result{}, fmt.Errorf("core: submission wants %d workers, engine has %d", p, e.p)
	}
	if phases < 0 {
		return Result{}, fmt.Errorf("core: negative phase count %d", phases)
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	select {
	case <-e.turn: // FIFO admission
	case <-ctx.Done():
		// Cancelled while queued: the baton was never taken, so there
		// is nothing to hand back and the submitter stops waiting
		// behind an arbitrarily long queue.
		return Result{}, ctx.Err()
	}
	defer func() { e.turn <- struct{}{} }()
	if e.closed {
		return Result{}, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err // cancelled while queued: never dispatched
	}

	d, err := e.dispatcher(cfg, p)
	if err != nil {
		return Result{}, err
	}
	if ds, ok := d.(depthSampler); ok {
		// Storing boxes the value; the cached AFS dispatcher is
		// usually the one already stored.
		if cur, _ := e.depthSrc.Load().(depthBox); cur.ds != ds {
			e.depthSrc.Store(depthBox{ds})
		}
	}

	r := &e.run
	r.reset(cfg, p, d, body, ctx.Done())

	// Real-runtime only: Elapsed and the telemetry clock measure the
	// host; nothing downstream replays from these values.
	start := time.Now() //lint:allow determinism real-runtime wall time anchors Stats.Elapsed and the ns-since-start telemetry clock
	r.t0 = start
	completed := 0
	for ph := 0; ph < phases; ph++ {
		nn := n(ph)
		if nn < 0 {
			nn = 0
		}
		d.initPhase(r, ph, nn)
		var phStart float64
		if r.obs != nil {
			phStart = r.nowNS()
			r.obs.Phase(telemetry.PhaseMark{Step: ph, N: nn, Start: phStart, End: phStart})
		}
		r.phaseWG.Add(p)
		for w := 0; w < p; w++ {
			e.starts[w] <- phaseTask{r: r, ph: ph, last: ph == phases-1} //lint:allow ctxflow workers drain starts until Close, so the send is bounded by the phase protocol; bailing mid-loop would desync the barrier
		}
		r.phaseWG.Wait() //lint:allow ctxflow cancellation aborts dispatch at chunk granularity and every worker calls Done, so the barrier always drains
		if r.obs != nil {
			r.obs.Phase(telemetry.PhaseMark{Step: ph, N: nn, Start: phStart, End: r.nowNS(),
				Barrier: true, Ops: r.phaseOps()})
		}
		// A cancellation that lands after a phase's last chunk fetch
		// is seen here: the next phase is never dispatched, and after
		// the last phase Execute still reports the context's error.
		if r.aborted.Load() || r.pollCancel() {
			break
		}
		completed++
	}

	r.stats.Elapsed = time.Since(start) //lint:allow determinism real-runtime wall time is the measured quantity here
	r.stats.Phases = completed
	res := Result{Stats: r.stats, Panic: r.panic}
	if r.panic == nil && r.cancelled.Load() {
		return res, context.Cause(ctx)
	}
	return res, nil
}

// dispatcher builds (or, for AFS, reuses) the chunk dispatcher for one
// submission.
func (e *Engine) dispatcher(cfg Config, p int) (dispatcher, error) {
	switch cfg.Spec.Family {
	case sched.FamilyCentral:
		if cfg.Spec.NewSizer == nil {
			return nil, fmt.Errorf("core: spec %q has no sizer", cfg.Spec.Name)
		}
		sizer := cfg.Spec.NewSizer()
		if cfg.MinChunk > 1 {
			sizer = &sched.Grained{Inner: sizer, Min: cfg.MinChunk}
		}
		return &centralDispatch{sizer: sizer}, nil
	case sched.FamilyStatic:
		return &staticDispatch{best: cfg.Spec.BestStatic, costHint: cfg.CostHint}, nil
	case sched.FamilyAFS:
		if e.afs != nil && e.afsName == cfg.Spec.Name && e.afsProcs == p {
			e.afs.minChunk = cfg.MinChunk
			return e.afs, nil
		}
		d := newAFSDispatch(p, cfg.Spec.AFS, cfg.Spec.Victim)
		d.minChunk = cfg.MinChunk
		e.afs, e.afsName, e.afsProcs = d, cfg.Spec.Name, p
		return d, nil
	case sched.FamilyModFactoring:
		return &modfactDispatch{mf: sched.NewModFactoring()}, nil
	default:
		return nil, fmt.Errorf("core: unsupported scheduler family %v", cfg.Spec.Family)
	}
}
