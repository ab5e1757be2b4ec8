package main

import (
	"context"
	"fmt"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/pool"
)

// loopProcs is the executor's worker count for the loop workloads,
// sized to a two-CPU host.
const loopProcs = 2

// setupSOR is sor-affinity: two 2 MiB grids exceed one core's L2, so
// the loop body dominates and keeping each row on one worker across
// sweeps (affinity) matters; AFS issues few chunks per sweep. The
// kernel's inputs are fixed, so the seed has nothing to vary.
func setupSOR(int64) (instance, error) {
	return setupLoop(job.Spec{Kernel: "sor", Params: job.Params{N: 512, Phases: 8}, Scheduler: "afs", Procs: loopProcs}, 30)
}

// setupSkew is skew-steal: the triangular cost forces steals every
// phase and the compute-only body stays steady, so dispatch, steals
// and barriers are a visible share of each op. Work 32 keeps a phase
// near 80 µs: at Work 8 (20 µs phases) the time a parked worker's
// vCPU takes to wake moved p50 by up to 45% between runs. 64 phases
// per op average over many barriers: at 16, an op either ran on both
// workers or, when one vCPU was away, on one, and p99 moved 12%.
func setupSkew(int64) (instance, error) {
	return setupLoop(job.Spec{Kernel: "spin-triangular", Params: job.Params{N: 2048, Phases: 64, Work: 32}, Scheduler: "afs", Procs: loopProcs}, 25)
}

// loopInst runs job.Build → Executor.SubmitPhases → checksum per op on
// one persistent executor.
type loopInst struct {
	x     *pool.Executor
	spec  job.Spec
	cfg   core.Config
	ref   float64 // serial checksum
	iters int64   // iterations per op
	// bound is Theorem 3.1's per-queue op bound for one loop.
	bound float64

	// Counts over traced ops (one client, so unsynchronised).
	ops, steals, syncOps, migrated, iterations, local, remote int64
	worstVsBound                                              float64
}

func setupLoop(spec job.Spec, warmups int) (instance, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	r, err := job.Build(spec)
	if err != nil {
		return nil, err
	}
	iters := runSerial(r)
	x, err := pool.New(loopProcs)
	if err != nil {
		return nil, err
	}
	l := &loopInst{
		x: x, spec: spec, cfg: cfg, ref: r.Checksum(), iters: iters,
		bound: analytic.Theorem31QueueOps(spec.Params.N, loopProcs, loopProcs),
	}
	for i := 0; i < warmups; i++ {
		if err := l.op(0, &opCtx{}); err != nil {
			x.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return l, nil
}

// runSerial executes r on the calling goroutine and returns the
// iteration count.
func runSerial(r *job.Runnable) int64 {
	var iters int64
	for ph := 0; ph < r.Phases; ph++ {
		n := r.N(ph)
		for i := 0; i < n; i++ {
			r.Body(ph, i)
		}
		iters += int64(n)
	}
	return iters
}

func (l *loopInst) clients() int { return 1 }

func (l *loopInst) op(_ int, o *opCtx) error {
	t0 := now()
	r, err := job.Build(l.spec)
	if err != nil {
		return err
	}
	t1 := now()
	st, err := l.x.SubmitPhases(context.Background(), l.cfg, r.Phases, r.N, r.Body)
	if err != nil {
		return err
	}
	t2 := now()
	sum := r.Checksum()
	t3 := now()
	if o.traced() {
		o.span(lBuild, t0, t1)
		o.span(lSubmit, t1, t2)
		o.span(lCheck, t2, t3)
		l.count(st)
	}
	if sum != l.ref || st.Iterations != l.iters {
		return fmt.Errorf("%w: checksum %v over %d iterations, want %v over %d", errWrongOutput, sum, st.Iterations, l.ref, l.iters)
	}
	return nil
}

func (l *loopInst) count(st core.Stats) {
	l.ops++
	l.steals += st.Steals
	l.syncOps += st.TotalSyncOps()
	l.migrated += st.MigratedIters
	l.iterations += st.Iterations
	var worst int64
	for q := range st.LocalOps {
		l.local += st.LocalOps[q]
		l.remote += st.RemoteOps[q]
		if ops := st.LocalOps[q] + st.RemoteOps[q]; ops > worst {
			worst = ops
		}
	}
	// Stats sum every phase; the bound is per loop.
	if st.Phases > 0 && l.bound > 0 {
		if v := float64(worst) / float64(st.Phases) / l.bound; v > l.worstVsBound {
			l.worstVsBound = v
		}
	}
}

// serial builds a fresh instance (untimed) and times its serial run.
func (l *loopInst) serial(o *opCtx) error {
	r, err := job.Build(l.spec)
	if err != nil {
		return err
	}
	t0 := now()
	iters := runSerial(r)
	o.span(lSerial, t0, now())
	if sum := r.Checksum(); sum != l.ref || iters != l.iters {
		return fmt.Errorf("%w: serial checksum %v over %d iterations, want %v over %d", errWrongOutput, sum, iters, l.ref, l.iters)
	}
	return nil
}

func (l *loopInst) layerMetrics(t *traceSet) map[string]float64 {
	m := map[string]float64{
		"job.build_ms":            t.durQ(lBuild, 0.5),
		"pool.submit_ms":          t.durQ(lSubmit, 0.5),
		"kernels.serial_ms":       t.durQ(lSerial, 0.5),
		"core.queue_ops_vs_thm31": l.worstVsBound,
		"core.thm31_bound_ops":    l.bound,
	}
	if sub := m["pool.submit_ms"]; sub > 0 {
		m["core.parallel_eff"] = m["kernels.serial_ms"] / (loopProcs * sub)
	}
	if l.ops > 0 {
		m["core.steals_per_op"] = float64(l.steals) / float64(l.ops)
		m["core.sync_ops_per_op"] = float64(l.syncOps) / float64(l.ops)
	}
	if l.iterations > 0 {
		m["core.migrated_frac"] = float64(l.migrated) / float64(l.iterations)
	}
	if q := l.local + l.remote; q > 0 {
		m["core.affinity_hit"] = float64(l.local) / float64(q)
	}
	return m
}

func (l *loopInst) close() { l.x.Close() }
