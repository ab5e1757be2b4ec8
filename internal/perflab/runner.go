package perflab

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"time"

	"repro/internal/bundle"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/forensics"
	"repro/internal/job"
	"repro/internal/livemetrics"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/runtimeobs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/spantrace"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/watchdog"
)

// CaseResult is one case's measured distribution: raw samples (seconds
// — simulated seconds for the sim substrate, wall seconds for real),
// their robust summary, and the telemetry counters of the median
// measured repeat.
type CaseResult struct {
	Case
	Samples  []float64          `json:"samples_sec"`
	Summary  stats.Summary      `json:"summary"`
	Counters map[string]float64 `json:"counters,omitempty"`
	// Forensics is the attribution digest of the median measured repeat
	// (per-processor-average compute / cache-reload / interconnect /
	// queue-wait / idle buckets). Optional: absent from baselines
	// written before execution forensics existed — the schema is
	// unchanged.
	Forensics *forensics.Summary `json:"forensics,omitempty"`
}

// Runner executes benchmark cases.
type Runner struct {
	// BaseSeed drives the bootstrap resampler and the simulator's
	// start-jitter, so a whole run is reproducible. 0 means 1.
	BaseSeed uint64
	// Inject multiplies the recorded samples of matching case IDs —
	// the synthetic-slowdown hook the gate's own tests (and CI smoke)
	// use to prove a regression would be caught.
	Inject map[string]float64
	// Bare runs every repeat without an observer, leaving Counters and
	// Forensics empty. The timing duels (duel, overhead) set it so each
	// arm's samples carry only the instrumentation the arm names.
	Bare bool
	// Progress, when non-nil, is called after each case completes.
	Progress func(done, total int, res CaseResult)
}

// seedFor derives a stable per-case seed from the run seed and case ID.
func (r *Runner) seedFor(id string) uint64 { return caseSeed(r.BaseSeed, id) }

// caseSeed is the shared derivation, also used to regenerate identical
// workloads for gate-failure forensics captures.
func caseSeed(base uint64, id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	if base == 0 {
		base = 1
	}
	return h.Sum64() ^ base
}

// Run executes every case in order and returns their results.
func (r *Runner) Run(cases []Case) ([]CaseResult, error) {
	out := make([]CaseResult, 0, len(cases))
	for i, c := range cases {
		res, err := r.runCase(c)
		if err != nil {
			return nil, fmt.Errorf("perflab: case %s: %w", c.ID, err)
		}
		out = append(out, res)
		if r.Progress != nil {
			r.Progress(i+1, len(cases), res)
		}
	}
	return out, nil
}

// runCase measures one case: warmup repeats discarded, measured repeats
// recorded, telemetry counters and the forensics digest taken from the
// median measured repeat.
func (r *Runner) runCase(c Case) (CaseResult, error) {
	if c.Repeats < 1 {
		return CaseResult{}, fmt.Errorf("repeats must be >= 1 (got %d)", c.Repeats)
	}
	var once func(rep int, obs telemetry.Observer) (float64, error)
	switch c.Substrate {
	case SubstrateSim:
		m, err := machine.ByName(c.Machine)
		if err != nil {
			return CaseResult{}, err
		}
		build, _, err := cli.BuildKernel(c.Kernel, c.N, c.Phases, int64(r.seedFor(c.ID)), m)
		if err != nil {
			return CaseResult{}, err
		}
		spec, err := sched.ByName(c.Algo)
		if err != nil {
			return CaseResult{}, err
		}
		once = func(rep int, obs telemetry.Observer) (float64, error) {
			met, err := sim.RunOpts(m, c.Procs, spec, build(), sim.Options{
				Seed:     r.seedFor(c.ID) + uint64(rep),
				Observer: obs,
			})
			if err != nil {
				return 0, err
			}
			return met.Seconds, nil
		}
	case SubstrateReal:
		run, err := realKernel(c)
		if err != nil {
			return CaseResult{}, err
		}
		once = func(rep int, obs telemetry.Observer) (float64, error) {
			st, err := run(obs)
			if err != nil {
				return 0, err
			}
			return st.Elapsed.Seconds(), nil
		}
	default:
		return CaseResult{}, fmt.Errorf("unknown substrate %q", c.Substrate)
	}

	for w := 0; w < c.Warmup; w++ {
		if _, err := once(-1-w, nil); err != nil {
			return CaseResult{}, err
		}
	}
	// Every measured repeat is observed (unless Bare), so the real
	// substrate's samples all carry the same observer cost and the
	// digest can describe the median repeat rather than an arbitrary
	// one. Simulated samples are simulated time: observing is free.
	samples := make([]float64, 0, c.Repeats)
	counters := make([]map[string]float64, 0, c.Repeats)
	digests := make([]*forensics.Summary, 0, c.Repeats)
	for rep := 0; rep < c.Repeats; rep++ {
		var reg *telemetry.Registry
		var prov *telemetry.Log[telemetry.Prov] // the real runtime's workers are concurrent
		var obs telemetry.Observer
		if !r.Bare {
			reg = telemetry.NewRegistry()
			obs = telemetry.ObserveMetrics(reg, c.timeUnit())
			if !c.stream() {
				prov = telemetry.NewLog[telemetry.Prov]()
				obs = telemetry.TeeObservers(obs, telemetry.ObserveProv(prov))
			}
		}
		s, err := once(rep, obs)
		if err != nil {
			return CaseResult{}, err
		}
		samples = append(samples, s)
		if reg != nil {
			counters = append(counters, currentValues(reg))
			var digest *forensics.Summary
			if prov != nil {
				digest = forensicsSummary(c, prov.Records())
			}
			digests = append(digests, digest)
		}
	}
	if f, ok := r.Inject[c.ID]; ok && f > 0 {
		for i := range samples {
			samples[i] *= f
		}
	}
	res := CaseResult{Case: c, Samples: samples, Summary: stats.Summarize(samples, r.seedFor(c.ID))}
	if !r.Bare {
		med := medianRepeat(samples)
		res.Counters, res.Forensics = counters[med], digests[med]
	}
	return res, nil
}

// medianRepeat returns the index of the repeat whose sample is the
// median (the lower middle for an even count; the first on ties).
func medianRepeat(samples []float64) int {
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return samples[idx[a]] < samples[idx[b]] })
	return idx[(len(idx)-1)/2]
}

// stream reports whether one sample of the case is a stream of
// separate submissions. Each submission numbers its phases and starts
// its clock from zero, so their provenance has no single makespan to
// attribute and the case gets no forensics digest.
func (c Case) stream() bool {
	return c.Kernel == "many-small-loops" || c.Kernel == "steady-loops" || c.Kernel == "serve-steady"
}

// timeUnit is the case's substrate clock: simulated cycles or real
// nanoseconds.
func (c Case) timeUnit() string {
	if c.Substrate == SubstrateReal {
		return "ns"
	}
	return "cycles"
}

// forensicsSummary condenses one repeat's provenance into the
// attribution digest stored with the baseline.
func forensicsSummary(c Case, recs []telemetry.Prov) *forensics.Summary {
	if len(recs) == 0 {
		return nil
	}
	a, err := forensics.Analyze(&telemetry.TraceFile{
		Meta: telemetry.TraceMeta{
			Label: c.ID, Substrate: c.Substrate, Machine: c.Machine,
			Kernel: c.Kernel, Algo: c.Algo, Procs: c.Procs, TimeUnit: c.timeUnit(),
		},
		Prov: recs,
	})
	if err != nil {
		return nil
	}
	s := a.Summarize()
	return &s
}

// currentValues snapshots the registry's values (the scheduling counters
// and the count/sum pairs) into a plain map.
func currentValues(reg *telemetry.Registry) map[string]float64 {
	reg.Snapshot(-1)
	series := reg.Series()
	if len(series) == 0 {
		return nil
	}
	return series[len(series)-1].Values
}

// realKernel builds a closure running one full execution of the case's
// kernel on the real goroutine runtime: a fresh job-registry build
// (internal/job, the kernels realbench, serve and perfbench run) as
// one phased submission, or one of the executor-lifetime streams.
func realKernel(c Case) (func(obs telemetry.Observer) (core.Stats, error), error) {
	if c.Kernel == "many-small-loops" || c.Kernel == "steady-loops" {
		return manySmallLoops(c)
	}
	if c.Kernel == "serve-steady" {
		return serveSteady(c)
	}
	spec, err := sched.ByName(c.Algo)
	if err != nil {
		return nil, err
	}
	if _, err := job.Lookup(c.Kernel); err != nil {
		return nil, fmt.Errorf("real substrate: %w (or many-small-loops, steady-loops, serve-steady)", err)
	}
	js := job.Spec{Kernel: c.Kernel, Params: job.Params{N: c.N, Phases: c.Phases}}
	return func(obs telemetry.Observer) (core.Stats, error) {
		r, err := job.Build(js)
		if err != nil {
			return core.Stats{}, err
		}
		return core.Run(core.Config{Procs: c.Procs, Spec: spec, Observer: obs}, r.Phases, r.N, r.Body)
	}, nil
}

// manySmallLoops is the executor-reuse duel kernel (also serving the
// "steady-loops" case, which differs only in loop size): one sample
// is a stream of c.Phases AFS loops of c.N iterations over one shared
// slice, timed end to end. The case's Algo picks the arm rather than
// the scheduler (all arms schedule with AFS): "executor" submits
// every loop to a single persistent pool, so worker goroutines and
// affinity state are paid for once per stream; "percall" calls
// core.ParallelFor per loop, paying spawn/teardown each time;
// "executor-obs" is the executor arm with a live observability plane
// attached and a scraper goroutine snapshotting metrics and dumping
// the flight ring throughout the stream; "executor-traced" stacks a
// span tracer on the obs arm, so every submission additionally builds
// and seals a causal span tree. The loop work is identical across
// arms: executor vs percall measures pure lifetime overhead (the
// headline claim for repro.Executor), executor-obs vs executor
// measures pure observability overhead (the budget `perflab overhead`
// gates), executor-traced vs executor prices tracing on top, and
// "executor-triage" arms the full auto-triage pipeline (watchdog +
// runtime sampler + bundle capturer, see armTriage) over the obs arm,
// gated against executor-obs. With many-small-loops sizes the obs arm is the
// deliberate worst case — chunk bodies of ~100ns against fixed
// per-chunk instrument cost; with steady-loops sizes the chunks are
// tens of microseconds and the same instruments amortise to noise.
func manySmallLoops(c Case) (func(obs telemetry.Observer) (core.Stats, error), error) {
	switch c.Algo {
	case "executor", "percall", "executor-obs", "executor-traced", "executor-triage":
	default:
		return nil, fmt.Errorf("many-small-loops wants algo executor, percall, executor-obs, executor-traced, or executor-triage (got %q)", c.Algo)
	}
	spec, err := sched.ByName("afs")
	if err != nil {
		return nil, err
	}
	return func(obs telemetry.Observer) (core.Stats, error) {
		data := make([]float64, c.N)
		body := func(i int) { data[i] += 1 / (1 + data[i]) }
		cfg := core.Config{Procs: c.Procs, Spec: spec, Observer: obs}
		var total core.Stats
		start := time.Now()
		if c.Algo != "percall" {
			// Pool creation is inside the timed region on purpose: the
			// claim is that one setup amortised over the stream beats
			// per-loop setup, not that setup is free.
			x, err := pool.New(c.Procs)
			if err != nil {
				return total, err
			}
			defer x.Close()
			var checkQuiet func() error
			if c.Algo != "executor" && c.Algo != "percall" {
				// Plane setup and the scraper's whole life sit inside
				// the timed region: the gated number is what attaching
				// observability costs a real serving process, scrapes
				// included.
				plane := livemetrics.New(livemetrics.Options{})
				x.SetObservability(plane)
				if c.Algo == "executor-traced" {
					// The traced arm additionally builds a span tree per
					// submission and retains exemplars, so its gap over
					// the bare executor prices the whole tracing path.
					tracer := spantrace.NewTracer(spantrace.Options{})
					x.SetTracer(tracer)
					plane.SetTracer(tracer)
				}
				stopScrape := scrapeLoop(plane)
				var stopTriage func()
				if c.Algo == "executor-triage" {
					stopTriage, checkQuiet, err = armTriage(plane)
					if err != nil {
						return total, err
					}
				}
				defer func() {
					if stopTriage != nil {
						stopTriage()
					}
					stopScrape()
				}()
			}
			for ph := 0; ph < c.Phases; ph++ {
				st, err := x.Submit(context.Background(), cfg, c.N, body)
				if err != nil {
					return total, err
				}
				total.Iterations += st.Iterations
				total.Steals += st.Steals
			}
			if checkQuiet != nil {
				if err := checkQuiet(); err != nil {
					return total, err
				}
			}
		} else {
			for ph := 0; ph < c.Phases; ph++ {
				st, err := core.ParallelFor(cfg, c.N, body)
				if err != nil {
					return total, err
				}
				total.Iterations += st.Iterations
				total.Steals += st.Steals
			}
		}
		total.Elapsed = time.Since(start)
		return total, nil
	}, nil
}

// armTriage wires the full auto-triage pipeline over the triage arm's
// plane — armed watchdog ticking at 25ms (10x the loopserved default,
// the priced worst case), a runtime sampler at 50ms feeding the
// capturer's runtime.json, and a bundle capturer into a throwaway
// store — and returns a teardown plus the arm's self-check: a steady
// workload must capture zero bundles, so the gated overhead number
// describes an armed-and-quiet detector and any false positive fails
// the run outright instead of silently inflating it.
func armTriage(plane *livemetrics.Plane) (stop func(), checkQuiet func() error, err error) {
	dir, err := os.MkdirTemp("", "perflab-triage-*")
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (func(), func() error, error) {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	store, err := bundle.OpenStore(dir, bundle.StoreOptions{})
	if err != nil {
		return fail(err)
	}
	sampler := runtimeobs.NewSampler()
	capt, err := bundle.NewCapturer(store, bundle.Sources{Plane: plane, Runtime: sampler, Label: "perflab-triage"},
		bundle.Options{CPUProfile: -1}) // a CPU profile would skew the very sample being timed
	if err != nil {
		return fail(err)
	}
	wd, err := watchdog.New(plane.Snapshot, watchdog.DefaultRules(), watchdog.Options{
		AnomalySeq: plane.Recorder().AnomalySeq,
	})
	if err != nil {
		return fail(err)
	}
	bundle.Attach(wd, capt, nil)
	sampler.Sample() // prime the runtime baselines before the first tick
	stopSampler := slo.Every(50*time.Millisecond, sampler.Sample)
	stopWD := slo.Every(25*time.Millisecond, wd.Tick)
	stop = func() {
		stopWD()
		stopSampler()
		os.RemoveAll(dir)
	}
	checkQuiet = func() error {
		if n := capt.Captures(); n != 0 {
			return fmt.Errorf("triage arm captured %d bundle(s) on a steady workload (watchdog false positive)", n)
		}
		return nil
	}
	return stop, checkQuiet, nil
}

// scrapeLoop runs an aggressive metrics consumer against the plane —
// quantile snapshots every 5ms and a full flight-ring dump every
// 50ms, roughly 10x a realistic scrape cadence — so the executor-obs
// arm prices the read path, not just the hot-path instruments. The
// returned stop blocks until the scraper exits.
func scrapeLoop(p *livemetrics.Plane) (stop func()) {
	done := make(chan struct{})
	quit := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-quit:
				return
			case <-tick.C:
				p.Snapshot()
				if n%10 == 9 {
					p.Recorder().Dump("scrape")
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
