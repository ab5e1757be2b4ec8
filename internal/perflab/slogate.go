package perflab

// The SLO gate: run a real executor workload with the observability
// plane and span tracer attached, score it against declarative service
// objectives with the burn-rate engine, and fail if any objective
// breaches. CI runs this so the default objectives stay honest — if a
// scheduling change pushes submission p99 past its ceiling or craters
// the affinity-hit ratio, the gate turns red with the same report a
// production /slo endpoint would show.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/livemetrics"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/slo"
	"repro/internal/spantrace"
)

// SLOGateOptions sizes the gate workload.
type SLOGateOptions struct {
	// Procs is the worker count. 0 means min(4, NumCPU): on a host
	// with fewer CPUs than workers the workers time-share cores, so
	// whoever runs first steals the sleepers' chunks and the
	// affinity-hit ratio collapses by construction — that's the host's
	// shape, not a scheduling regression, so the gate must not
	// oversubscribe by default.
	Procs int
	N     int // iterations per loop (default 1<<16)
	Loops int // submissions in the stream (default 40)
	// Objectives defaults to slo.DefaultObjectives().
	Objectives []slo.Objective
}

// SLOGateResult is the gate's evidence: the report for the real
// objectives and the self-test report for impossible ones.
type SLOGateResult struct {
	// Report scores the workload against the configured objectives.
	// The gate passes iff no objective breaches.
	Report slo.Report
	// Sanity scores the same workload against impossible objectives
	// (a sub-nanosecond p99 ceiling, a >100% affinity floor). It must
	// breach — if it doesn't, the evaluation machinery is broken and
	// the gate's green is meaningless.
	Sanity slo.Report
}

// RunSLOGate drives the workload and evaluates both engines. The
// engines are ticked manually, once per submission, rather than on a
// wall-clock timer: every run scores the same number of evaluations,
// so the gate's verdict depends on the workload, not on scrape timing.
func RunSLOGate(opts SLOGateOptions) (SLOGateResult, error) {
	if opts.Procs <= 0 {
		opts.Procs = 4
		if n := runtime.NumCPU(); n < opts.Procs {
			opts.Procs = n
		}
	}
	if opts.N <= 0 {
		opts.N = 1 << 16
	}
	if opts.Loops <= 0 {
		opts.Loops = 40
	}
	objectives := opts.Objectives
	if objectives == nil {
		objectives = slo.DefaultObjectives()
	}

	var res SLOGateResult
	x, err := pool.New(opts.Procs)
	if err != nil {
		return res, err
	}
	defer x.Close()
	plane := livemetrics.New(livemetrics.Options{})
	tracer := spantrace.NewTracer(spantrace.Options{})
	x.SetObservability(plane)
	x.SetTracer(tracer)
	plane.SetTracer(tracer)

	eng, err := slo.New(plane.Snapshot, objectives, slo.Options{})
	if err != nil {
		return res, err
	}
	sanity, err := slo.New(plane.Snapshot, impossibleObjectives(), slo.Options{})
	if err != nil {
		return res, err
	}

	spec, err := sched.ByName("afs")
	if err != nil {
		return res, err
	}
	cfg := core.Config{Procs: opts.Procs, Spec: spec}
	data := make([]float64, opts.N)
	for i := 0; i < opts.Loops; i++ {
		if _, err := x.Submit(context.Background(), cfg, opts.N,
			func(j int) { data[j] += 1 / (1 + data[j]) }); err != nil {
			return res, fmt.Errorf("slo gate workload: %w", err)
		}
		eng.Tick()
		sanity.Tick()
	}

	res.Report = eng.Report()
	res.Sanity = sanity.Report()
	if !res.Sanity.Breaching {
		return res, fmt.Errorf("slo gate self-test failed: impossible objectives did not breach — the evaluator is not scoring")
	}
	return res, nil
}

// impossibleObjectives can never hold on a real workload; breaching
// them proves the evaluator scores samples at all.
func impossibleObjectives() []slo.Objective {
	w := []slo.Window{{Duration: time.Minute, MaxBurn: 1}}
	return []slo.Objective{
		{Name: "impossible-p99", Metric: slo.MetricP99SubmissionNS,
			Threshold: 0.5, Budget: 0.001, Windows: w},
	}
}
