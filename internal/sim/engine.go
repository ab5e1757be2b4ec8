// Package sim is a deterministic discrete-event simulator of parallel
// loop execution on the shared-memory machines described by
// internal/machine. It reproduces the first-order effects the paper
// measures: work-queue serialisation, cache affinity across the phases
// of an outer sequential loop, coherence invalidations, shared-bus
// contention, and load imbalance. See DESIGN.md §2 for the modelling
// substitutions.
package sim

import (
	"fmt"
	"sync"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Options tunes one simulation run.
type Options struct {
	// StartDelay gives per-processor extra cycles before the processor
	// begins fetching work in step 0 (the §4.5 delayed-start
	// experiments). May be shorter than the processor count.
	StartDelay []float64
	// Seed drives the deterministic per-step start jitter (see
	// machine.Machine.StartJitterCycles). Runs with equal seeds are
	// bit-identical.
	Seed uint64
	// Observer, when non-nil, receives the run as the same two
	// records the real runtime emits (telemetry.Observer), with times
	// in cycles: a PhaseMark at each step's begin (Flush set when the
	// caches were flushed before it) and after its barrier (carrying
	// the step's OpCounts), and one Prov per executed chunk with its
	// queue wait (a stolen chunk's is its steal) and the exact
	// decomposition of its window into compute, cache-reload and
	// bus-wait cycles. Compose consumers with telemetry.TeeObservers
	// (ObserveEvents and ObserveMetrics with unit "cycles",
	// ObserveProv, a spantrace.Active). The simulator is
	// single-threaded, so unsynchronised sinks are fine.
	Observer telemetry.Observer
	// ActiveProcs, when non-nil, gives the number of processors
	// available during each step (clamped to [1, P]) — modelling a
	// space-sharing operating system growing or shrinking the
	// application's partition between phases (§2.2 claims the dynamic
	// algorithms are "immune to the arrival and departure of
	// processors"). Departed processors keep their cache contents and
	// may rejoin later.
	ActiveProcs func(step int) int
	// FlushEverySteps, when positive, invalidates every processor's
	// cache after each group of that many program steps — modelling
	// time-sharing with another application whose quantum corrupts the
	// caches between phases (the §2.1 discussion: affinity scheduling
	// only pays off if data survives in local storage long enough to be
	// reused; §6's Gupta/Vaswani debate). 0 means dedicated processors
	// (space sharing), the paper's recommended regime.
	FlushEverySteps int
}

// Run simulates prog on p processors of m under the scheduling
// algorithm described by spec, with default options.
func Run(m *machine.Machine, p int, spec sched.Spec, prog Program) (Metrics, error) {
	return RunOpts(m, p, spec, prog, Options{})
}

// RunOpts is Run with explicit options. It takes an engine from a
// pool and resets it in place, so back-to-back runs reuse the caches,
// directory, slot table, event heap and scheduler queues of earlier
// runs; the result does not depend on which runs came before.
func RunOpts(m *machine.Machine, p int, spec sched.Spec, prog Program, opts Options) (Metrics, error) {
	if err := m.Validate(); err != nil {
		return Metrics{}, err
	}
	if p < 1 {
		return Metrics{}, fmt.Errorf("sim: need at least 1 processor, got %d", p)
	}
	if p > 64 {
		return Metrics{}, fmt.Errorf("sim: at most 64 processors supported (coherence directory uses 64-bit holder masks), got %d", p)
	}
	e := enginePool.Get().(*engine)
	met := e.simulate(m, p, spec, prog, opts)
	enginePool.Put(e)
	return met, nil
}

// enginePool holds idle engines with the storage their last run grew.
var enginePool = sync.Pool{New: func() any { return newEngine() }}

// simulate resets e for one run, executes it and returns its metrics.
// On return e holds no reference to the caller's machine, program,
// spec or options.
func (e *engine) simulate(m *machine.Machine, p int, spec sched.Spec, prog Program, opts Options) Metrics {
	e.reset(m, p, spec, prog)
	e.obs = opts.Observer
	e.activeFn = opts.ActiveProcs
	e.flushEvery = opts.FlushEverySteps
	e.seed = opts.Seed ^ 0x9e3779b97f4a7c15
	for i, d := range opts.StartDelay {
		if i < p && d > 0 {
			e.state[i].clock += d
		}
	}
	e.run()
	met := e.metrics()
	e.release()
	return met
}

// event is one scheduled processor action.
type event struct {
	time float64
	seq  int64
	proc int
}

// eventHeap is a binary min-heap of events ordered by (time, seq).
// seq is unique, so the order is total: any correct heap pops the same
// sequence. Typed methods keep events out of interfaces, so the event
// loop allocates nothing once the slice has grown to P entries. The
// loop handles the top event in place: replaceTop re-keys it with the
// processor's next action in one sift-down, which leaves the same set
// of events as a pop followed by a push, so the pop sequence is
// unchanged.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	h.down()
	return top
}

// replaceTop overwrites the minimum with ev and restores the order.
func (h eventHeap) replaceTop(ev event) {
	h[0] = ev
	h.down()
}

// down sifts the root to its place.
func (h eventHeap) down() {
	n := len(h)
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.less(r, child) {
			child = r
		}
		if !h.less(child, i) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// procState is one processor's execution state within a step.
type procState struct {
	clock      float64
	chunk      sched.Chunk
	chunkStart float64
	idx        int
	hasChunk   bool

	// Per-chunk provenance: where the chunk came from and how its
	// execution window decomposes (reset at every fetch).
	chunkOwner     int
	chunkStolen    bool
	chunkQueueWait float64
	chunkCompute   float64
	chunkCache     float64
	chunkBus       float64
	chunkMisses    int
}

type engine struct {
	m    *machine.Machine
	p    int
	spec sched.Spec
	prog Program

	caches []*Cache
	dir    directory
	bus    Resource
	// slots interns footprint IDs into the dense slot numbers the
	// caches and the directory are indexed by.
	slots slotTable

	state []procState
	heap  eventHeap
	seq   int64
	seed  uint64
	step  int
	obs   telemetry.Observer

	// fetchOwner/fetchStolen describe the chunk the most recent
	// fetcher call returned: which queue it came from (-1 for the
	// central queue) and whether it migrated. Fetchers set them inside
	// fetch; the engine folds them into provenance records.
	fetchOwner  int
	fetchStolen bool
	flushEvery  int
	activeFn    func(step int) int
	active      int

	// f is the spec family's fetcher: one of the four below, which
	// persist across pooled runs so their storage is reused.
	f       fetcher
	central centralFetcher
	static  staticFetcher
	afs     afsFetcher
	modfact modfactFetcher

	loop ParLoop

	// The touch walk's bound callbacks: visit (e.touch) and evict are
	// bound once in newEngine, so handing them to loop.Touches and
	// Cache.Touch allocates nothing. cur and curSt name the processor
	// executing the current iteration.
	visit func(Touch)
	evict func(s int32)
	cur   int
	curSt *procState

	// AFS-LE execution history: lastExec[globalID] = last executing
	// processor, or -1.
	lastExec []int32

	// accumulated metrics
	centralOps    int
	localOps      []int
	remoteOps     []int
	procBusy      []float64
	steals        int
	migratedIters int
	hits, misses  int
	bytesMoved    int64
	busWait       float64
	queueWait     float64
	iterations    int
	serialCycles  float64

	// lastOps is the scheduling counters' value at the previous
	// barrier, so each barrier mark reports only its step's growth.
	lastOps telemetry.OpCounts
}

// newEngine returns an empty engine with its callbacks bound; reset
// readies it for a run.
func newEngine() *engine {
	e := &engine{}
	e.visit = e.touch
	e.evict = func(s int32) { e.dir.dropHolder(s, e.cur) }
	e.central.e, e.static.e, e.afs.e, e.modfact.e = e, e, e, e
	return e
}

// reset readies e for a run of prog on p processors of m. Every field
// starts from its zero value except the storage earlier runs grew —
// caches, directory, slot table, processor states, event heap, counter
// slices and the fetchers' queues — which is emptied and resized in
// place.
func (e *engine) reset(m *machine.Machine, p int, spec sched.Spec, prog Program) {
	*e = engine{
		m: m, p: p, spec: spec, prog: prog,
		caches:   grown(e.caches, p),
		dir:      directory{holders: e.dir.holders[:0]},
		slots:    e.slots,
		state:    zeroed(e.state, p),
		heap:     e.heap[:0],
		active:   p,
		central:  centralFetcher{e: e},
		static:   e.static,
		afs:      e.afs,
		modfact:  modfactFetcher{e: e, mf: e.modfact.mf},
		visit:    e.visit,
		evict:    e.evict,
		lastExec: e.lastExec[:0],
		localOps: zeroed(e.localOps, p), remoteOps: zeroed(e.remoteOps, p),
		procBusy: zeroed(e.procBusy, p),
	}
	for i, c := range e.caches {
		if c == nil {
			e.caches[i] = NewCache(m.CacheBytes)
		} else {
			c.reset(m.CacheBytes)
		}
	}
	e.slots.reset()
	switch spec.Family {
	case sched.FamilyCentral:
		e.f = &e.central
	case sched.FamilyStatic:
		e.f = &e.static
	case sched.FamilyAFS:
		e.afs.reset(spec.AFS, p)
		e.f = &e.afs
	case sched.FamilyModFactoring:
		e.f = &e.modfact
	default:
		panic(fmt.Sprintf("sim: unknown scheduler family %v", spec.Family))
	}
}

// release drops every reference e holds to the caller's memory — the
// machine, program, spec (and the Sizer it built), observer,
// ActiveProcs and the current loop — so a pooled engine pins nothing
// but its own storage.
func (e *engine) release() {
	e.m, e.prog, e.spec, e.loop = nil, Program{}, sched.Spec{}, ParLoop{}
	e.obs, e.activeFn = nil, nil
	e.central = centralFetcher{e: e}
}

// grown returns s with length n, keeping its elements and reusing its
// backing array when that is large enough.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// zeroed returns s with length n and every element zero, reusing its
// backing array when that is large enough.
func zeroed[T any](s []T, n int) []T {
	s = grown(s, n)
	clear(s)
	return s
}

func (e *engine) run() {
	for s := 0; s < e.prog.Steps; s++ {
		e.loop = e.prog.Step(s)
		if e.loop.N <= 0 {
			continue
		}
		e.step = s
		// Sum the serial compute here, in (step, i) ascending order,
		// so Metrics.SerialComputeCycles equals Program.SerialCycles
		// bit for bit without generating every step a second time.
		for i := 0; i < e.loop.N; i++ {
			e.serialCycles += e.loop.Cost(i)
		}
		e.active = e.p
		if e.activeFn != nil {
			if a := e.activeFn(s); a < 1 {
				e.active = 1
			} else if a < e.p {
				e.active = a
			}
		}
		flush := e.flushEvery > 0 && s > 0 && s%e.flushEvery == 0
		if flush {
			// Another application's quantum ran between these phases:
			// everything cached is gone.
			for q := range e.caches {
				e.caches[q].Clear()
			}
			clear(e.dir.holders)
		}
		var begin float64
		if e.obs != nil {
			begin = e.minClock()
			e.obs.Phase(telemetry.PhaseMark{Step: s, N: e.loop.N, Start: begin, End: begin, Flush: flush})
		}
		e.applyJitter()
		e.f.initStep(&e.loop)
		e.runStep()
		e.barrier()
		e.iterations += e.loop.N
		if e.obs != nil {
			// All clocks are equal after the barrier.
			e.obs.Phase(telemetry.PhaseMark{Step: s, N: e.loop.N, Start: begin, End: e.state[0].clock,
				Barrier: true, Ops: e.stepOps()})
		}
	}
}

// stepOps returns the scheduling counters' growth since the previous
// barrier.
func (e *engine) stepOps() telemetry.OpCounts {
	now := telemetry.OpCounts{
		CentralOps:    int64(e.centralOps),
		LocalOps:      int64(sum(e.localOps)),
		RemoteOps:     int64(sum(e.remoteOps)),
		Steals:        int64(e.steals),
		MigratedIters: int64(e.migratedIters),
		Iterations:    int64(e.iterations),
	}
	d := now.Sub(e.lastOps)
	e.lastOps = now
	return d
}

// minClock returns the earliest processor clock — the step's logical
// start time for phase-boundary events.
func (e *engine) minClock() float64 {
	min := e.state[0].clock
	for p := 1; p < len(e.state); p++ {
		if e.state[p].clock < min {
			min = e.state[p].clock
		}
	}
	return min
}

// applyJitter skews each processor's release from the step-start
// barrier by a deterministic pseudo-random amount bounded by the
// machine's StartJitterCycles, so central-queue chunk assignment varies
// from phase to phase the way it does on real hardware.
func (e *engine) applyJitter() {
	j := e.m.StartJitterCycles
	if j <= 0 {
		return
	}
	for p := range e.state {
		h := splitmix64(e.seed ^ uint64(e.step)*0x9e3779b97f4a7c15 ^ uint64(p)<<32)
		frac := float64(h>>11) / float64(1<<53)
		e.state[p].clock += frac * j
	}
}

// splitmix64 is the standard 64-bit mixing function; deterministic and
// dependency-free.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// runStep executes the current parallel loop to completion. Each
// active processor has exactly one event queued until it runs out of
// work: the loop handles the earliest, then re-keys it in place with
// the processor's next action, and pops it only when fetch finds
// nothing left.
func (e *engine) runStep() {
	e.heap = e.heap[:0]
	for p := 0; p < e.active; p++ {
		e.state[p].hasChunk = false
		e.heap.push(e.next(p))
	}
	for len(e.heap) > 0 {
		p := e.heap[0].proc
		st := &e.state[p]
		if !st.hasChunk {
			e.fetchOwner, e.fetchStolen = -1, false
			c, ready, ok := e.f.fetch(p, st.clock)
			if !ok {
				e.heap.pop()
				continue
			}
			e.queueWait += ready - st.clock
			st.chunkQueueWait = ready - st.clock
			if ready > st.clock {
				st.clock = ready
			}
			st.chunk = c
			st.chunkStart = st.clock
			st.idx = c.Lo
			st.hasChunk = true
			st.chunkOwner, st.chunkStolen = e.fetchOwner, e.fetchStolen
			st.chunkCompute, st.chunkCache, st.chunkBus = 0, 0, 0
			st.chunkMisses = 0
			if e.loop.Touches == nil {
				// No shared memory: execute the whole chunk inline.
				for i := c.Lo; i < c.Hi; i++ {
					st.clock += e.loop.Cost(i)
					e.recordExec(i, p)
				}
				st.chunkCompute = st.clock - st.chunkStart
				e.procBusy[p] += st.clock - st.chunkStart
				st.hasChunk = false
				e.traceExec(p, st)
			}
		} else {
			e.execIteration(p, st)
		}
		e.heap.replaceTop(e.next(p))
	}
}

// next returns processor p's next action, at its current clock.
func (e *engine) next(p int) event {
	e.seq++
	return event{e.state[p].clock, e.seq, p}
}

// execIteration executes one iteration of st's current chunk, advancing
// the processor's clock by memory-system costs and compute cost.
func (e *engine) execIteration(p int, st *procState) {
	i := st.idx
	if e.loop.Touches != nil {
		e.cur, e.curSt = p, st
		e.loop.Touches(i, e.visit)
	}
	cost := e.loop.Cost(i)
	st.clock += cost
	st.chunkCompute += cost
	e.recordExec(i, p)
	st.idx++
	if st.idx >= st.chunk.Hi {
		e.procBusy[p] += st.clock - st.chunkStart
		st.hasChunk = false
		e.traceExec(p, st)
	}
}

// touch applies one footprint reference of the current iteration to
// the memory system: the cache lookup, the reload and its bus
// transfer on a miss, and write-invalidation of the other holders.
// The footprint's slot costs one probe sequence in the open-addressed
// slot table; a footprint seen for the first time gets the next slot,
// and the directory grows with it.
func (e *engine) touch(t Touch) {
	p, st := e.cur, e.curSt
	s, fresh := e.slots.intern(t.ID)
	if fresh {
		e.dir.holders = append(e.dir.holders, 0)
	}
	cache := e.caches[p]
	if cache.Touch(s, t.Bytes, e.evict) {
		e.hits++
	} else {
		e.misses++
		st.chunkMisses++
		e.bytesMoved += int64(t.Bytes)
		if bc := e.m.BusCycles(t.Bytes); bc > 0 {
			start, _ := e.bus.Acquire(st.clock, bc)
			e.busWait += start - st.clock
			st.chunkBus += start - st.clock
			st.chunkCache += e.m.TransferCycles(t.Bytes)
			st.clock = start + e.m.TransferCycles(t.Bytes)
		} else {
			st.chunkCache += e.m.TransferCycles(t.Bytes)
			st.clock += e.m.TransferCycles(t.Bytes)
		}
		if cache.Contains(s) {
			e.dir.addHolder(s, p)
		}
	}
	if t.Write {
		others := e.dir.holdersOf(s) &^ (1 << uint(p))
		for q := 0; others != 0; q++ {
			if others&(1<<uint(q)) != 0 {
				e.caches[q].Invalidate(s)
				others &^= 1 << uint(q)
			}
		}
		if cache.Contains(s) {
			e.dir.setExclusive(s, p)
		} else {
			e.dir.holders[s] = 0
		}
	}
}

// traceExec reports a finished chunk's cost-decomposed record to the
// observer.
func (e *engine) traceExec(p int, st *procState) {
	if e.obs != nil {
		e.obs.Chunk(telemetry.Prov{
			Step: e.step, Proc: p, Owner: st.chunkOwner, Stolen: st.chunkStolen,
			Lo: st.chunk.Lo, Hi: st.chunk.Hi,
			Start: st.chunkStart, End: st.clock,
			QueueWait: st.chunkQueueWait,
			Compute:   st.chunkCompute, CacheReload: st.chunkCache,
			BusWait: st.chunkBus, Misses: st.chunkMisses,
		})
	}
}

// recordExec remembers which processor executed a global iteration, for
// the AFS-LE extension's next-step assignment.
func (e *engine) recordExec(i, p int) {
	if !e.spec.LastExecuted {
		return
	}
	gid := e.loop.GlobalID(i)
	if gid < 0 {
		return
	}
	for gid >= len(e.lastExec) {
		e.lastExec = append(e.lastExec, -1)
	}
	e.lastExec[gid] = int32(p)
}

// barrier joins all processors at the end of a step.
func (e *engine) barrier() {
	max := 0.0
	for p := range e.state {
		if e.state[p].clock > max {
			max = e.state[p].clock
		}
	}
	max += e.m.BarrierCycles
	for p := range e.state {
		e.state[p].clock = max
	}
}

func (e *engine) metrics() Metrics {
	cycles := 0.0
	for p := range e.state {
		if e.state[p].clock > cycles {
			cycles = e.state[p].clock
		}
	}
	return Metrics{
		Program: e.prog.Name,
		Machine: e.m.Name,
		Algo:    e.spec.Name,
		Procs:   e.p,
		Steps:   e.prog.Steps,

		Cycles:  cycles,
		Seconds: e.m.Seconds(cycles),

		CentralOps: e.centralOps,
		LocalOps:   append([]int(nil), e.localOps...),
		RemoteOps:  append([]int(nil), e.remoteOps...),

		Steals:        e.steals,
		MigratedIters: e.migratedIters,

		Hits:       e.hits,
		Misses:     e.misses,
		BytesMoved: e.bytesMoved,

		BusWaitCycles:   e.busWait,
		QueueWaitCycles: e.queueWait,

		ProcBusyCycles: append([]float64(nil), e.procBusy...),

		SerialComputeCycles: e.serialCycles,
	}
}

// ---- fetchers ----

// A fetcher encapsulates one scheduler family's work-distribution
// protocol inside the engine.
type fetcher interface {
	// initStep prepares for a new parallel loop.
	initStep(loop *ParLoop)
	// fetch returns proc p's next chunk, the time it becomes available
	// (≥ now, accounting for queue service and contention), and whether
	// any work remains for p.
	fetch(p int, now float64) (c sched.Chunk, readyAt float64, ok bool)
}

// centralFetcher drives all Sizer-based policies through one central
// work queue modelled as a FIFO resource.
type centralFetcher struct {
	e     *engine
	sizer sched.Sizer
	disp  sched.Dispenser
	queue Resource
}

func (f *centralFetcher) initStep(loop *ParLoop) {
	if f.sizer == nil {
		f.sizer = f.e.spec.NewSizer()
	}
	f.disp.Reset(f.sizer, loop.N, f.e.active)
}

func (f *centralFetcher) fetch(p int, now float64) (sched.Chunk, float64, bool) {
	if f.disp.Remaining() == 0 {
		return sched.Chunk{}, now, false
	}
	if ag, isAdaptive := f.sizer.(*sched.AdaptiveGSS); isAdaptive {
		ag.SetContention(f.queue.Waiters(now, f.e.m.CentralQueueOp))
	}
	_, end := f.queue.Acquire(now, f.e.m.CentralQueueOp)
	end = f.e.queueBusTraffic(end)
	c, ok := f.disp.Next()
	if !ok {
		return sched.Chunk{}, end, false
	}
	f.e.centralOps++
	return c, end, true
}

// queueBusTraffic charges the shared interconnect for the coherence
// traffic a shared-memory queue operation generates, returning the new
// ready time.
func (e *engine) queueBusTraffic(t float64) float64 {
	bc := e.m.QueueOpBusCycles()
	if bc == 0 {
		return t
	}
	start, end := e.bus.Acquire(t, bc)
	e.busWait += start - t
	return end
}

// staticFetcher serves precomputed assignments with no queue costs.
// Both static policies give each processor at most one contiguous
// block, so blocks[p] is processor p's block until it fetches it.
// prefix is BEST-STATIC's prefix-sum scratch.
type staticFetcher struct {
	e      *engine
	blocks []sched.Chunk
	prefix []float64
}

func (f *staticFetcher) initStep(loop *ParLoop) {
	f.blocks = grown(f.blocks, f.e.active)
	if f.e.spec.BestStatic {
		f.prefix = grown(f.prefix, loop.N+1)
		sched.BestStaticBlocks(f.blocks, f.prefix, loop.Cost)
		return
	}
	for i := range f.blocks {
		f.blocks[i] = sched.StaticBlock(i, loop.N, f.e.active)
	}
}

func (f *staticFetcher) fetch(p int, now float64) (sched.Chunk, float64, bool) {
	c := f.blocks[p]
	if c.Empty() {
		return sched.Chunk{}, now, false
	}
	f.blocks[p] = sched.Chunk{}
	f.e.fetchOwner = p // static assignments never migrate
	return c, now, true
}

// afsFetcher implements affinity scheduling: per-processor queues (each
// a FIFO resource), deterministic initial placement, 1/k local takes,
// and stealing of 1/P from a victim chosen by the spec's policy
// (most-loaded by default; random or power-of-two as extensions).
type afsFetcher struct {
	e        *engine
	afs      sched.AFS
	queues   []sched.Queue
	qres     []Resource
	lens     []int
	rngState uint64
	// staticOwner is AFS-LE's per-step scratch: each iteration's
	// static owner.
	staticOwner []int32
}

// reset readies the fetcher for a run on p processors, keeping the
// queues' storage.
func (f *afsFetcher) reset(a sched.AFS, p int) {
	f.afs, f.rngState = a, 0
	f.queues = grown(f.queues, p)
	f.qres = zeroed(f.qres, p)
	f.lens = grown(f.lens, p)
}

// rng draws a deterministic pseudo-random value in [0, n) for the
// randomized victim policies.
func (f *afsFetcher) rng(n int) int {
	f.rngState++
	return int(splitmix64(f.e.seed^f.rngState*0x9e3779b97f4a7c15) % uint64(n))
}

func (f *afsFetcher) initStep(loop *ParLoop) {
	for i := range f.queues {
		f.queues[i].Reset()
	}
	if f.e.spec.LastExecuted && len(f.e.lastExec) > 0 {
		f.assignByHistory(loop)
		return
	}
	for i := 0; i < f.e.active; i++ {
		f.queues[i].Push(sched.StaticBlock(i, loop.N, f.e.active))
	}
}

// assignByHistory places each iteration on the processor that last
// executed it (AFS-LE), falling back to the static owner for iterations
// never seen. Runs of consecutive iterations with the same owner are
// pushed as single chunks.
func (f *afsFetcher) assignByHistory(loop *ParLoop) {
	p := f.e.active
	staticOwner := grown(f.staticOwner, loop.N)
	f.staticOwner = staticOwner
	for proc := 0; proc < p; proc++ {
		c := sched.StaticBlock(proc, loop.N, p)
		for i := c.Lo; i < c.Hi; i++ {
			staticOwner[i] = int32(proc)
		}
	}
	owner := func(i int) int32 {
		gid := loop.GlobalID(i)
		if gid >= 0 && gid < len(f.e.lastExec) && f.e.lastExec[gid] >= 0 && int(f.e.lastExec[gid]) < p {
			return f.e.lastExec[gid]
		}
		return staticOwner[i]
	}
	runStart := 0
	cur := owner(0)
	for i := 1; i <= loop.N; i++ {
		if i == loop.N || owner(i) != cur {
			f.queues[cur].Push(sched.Chunk{Lo: runStart, Hi: i})
			if i < loop.N {
				runStart, cur = i, owner(i)
			}
		}
	}
}

func (f *afsFetcher) fetch(p int, now float64) (sched.Chunk, float64, bool) {
	q := &f.queues[p]
	if q.Len() > 0 {
		amt := f.afs.LocalAmount(q.Len(), f.e.active)
		_, end := f.qres[p].Acquire(now, f.e.m.AFSLocalOp())
		c, _ := q.TakeFront(amt)
		f.e.localOps[p]++
		f.e.fetchOwner = p
		return c, end, true
	}
	for i := range f.queues {
		f.lens[i] = f.queues[i].Len()
	}
	v := sched.ChooseVictim(f.e.spec.Victim, f.lens, p, f.rng)
	if v < 0 {
		return sched.Chunk{}, now, false
	}
	amt := f.afs.StealAmount(f.queues[v].Len(), f.e.active)
	_, end := f.qres[v].Acquire(now, f.e.m.RemoteQueueOp)
	end = f.e.queueBusTraffic(end)
	c, ok := f.queues[v].TakeBack(amt)
	if !ok {
		return sched.Chunk{}, end, false
	}
	f.e.remoteOps[v]++
	f.e.steals++
	f.e.migratedIters += c.Len()
	f.e.fetchOwner, f.e.fetchStolen = v, true
	return c, end, true
}

// modfactFetcher drives the §2.3 modified-factoring phase board through
// the central queue resource.
type modfactFetcher struct {
	e     *engine
	mf    sched.ModFactoring
	queue Resource
}

func (f *modfactFetcher) initStep(loop *ParLoop) {
	f.mf.Init(loop.N, f.e.active)
}

func (f *modfactFetcher) fetch(p int, now float64) (sched.Chunk, float64, bool) {
	if f.mf.Done() {
		return sched.Chunk{}, now, false
	}
	_, end := f.queue.Acquire(now, f.e.m.CentralQueueOp)
	end = f.e.queueBusTraffic(end)
	c, ok := f.mf.Claim(p)
	if !ok {
		return sched.Chunk{}, end, false
	}
	f.e.centralOps++
	return c, end, true
}
