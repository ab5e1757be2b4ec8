// Command engineview is the live introspection server for the
// persistent execution engine: it starts a repro.Executor with an
// observability plane attached, drives a phased demo workload over it
// (alternating scheduling algorithms, so the live affinity-hit ratio
// contrast is visible), and serves the plane over HTTP:
//
//	engineview -addr localhost:8077 -algos afs,gss -p 4 -n 65536
//
//	/             auto-refreshing HTML view
//	/metrics      rolling p50/p90/p99 latencies, counters, worker
//	              gauges, slow-submission exemplars with trace IDs
//	/metrics.prom Prometheus text exposition (plane, SLO, watchdog and
//	              runtime series)
//	/workers      per-worker ownership, affinity-hit ratio, steal
//	              rate, queue depth
//	/flight       flight-recorder dump (?format=jsonl|chrome|trace,
//	              ?which=live|anomaly)
//	/traces       recent span traces; /trace?id=N one span tree
//	              (?format=json|trace)
//	/slo          SLO burn-rate report (?format=json)
//	/watchdog     online anomaly detector status (rules, baselines,
//	              recent triggers)
//	/runtime      Go runtime/metrics sample (GC pause + sched latency
//	              quantiles, goroutines, heap)
//	/bundles      captured diagnostic bundles (with -bundles DIR)
//	/bundle?id=   one bundle as a tar, ready for `loopdoctor bundle`
//	/debug/       pprof + expvar
//
// The trace format feeds straight into forensics: `loopdoctor attach
// http://localhost:8077` captures a flight dump and produces the
// standard attribution report, and `loopdoctor trace <id>` does the
// same for one traced submission named by a /metrics exemplar.
// Embedders serving their own executor use repro.WithObservability +
// repro.ObservabilityHandler instead; this command is the
// batteries-included harness around them, assembled by internal/daemon
// like loopserved.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/daemon"
	"repro/internal/slo"
	"repro/internal/watchdog"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "engineview:", err)
		os.Exit(1)
	}
}

type options struct {
	daemon.Flags
	procs      int
	n          int
	phases     int
	algos      []string
	pause      time.Duration
	stormAfter time.Duration
	stormFor   time.Duration
}

// parseArgs resolves and validates the flag set (internal/cli
// validators, so bad values name their flag).
func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("engineview", flag.ExitOnError)
	var o options
	o.Register(fs, "localhost:8077")
	procs := fs.Int("p", 4, "worker goroutines")
	n := fs.Int("n", 1<<16, "iterations per parallel loop")
	phases := fs.Int("phases", 8, "phases per submission")
	algos := fs.String("algos", "afs,gss", "comma-separated schedulers the demo workload alternates")
	pause := fs.Duration("pause", 50*time.Millisecond, "pause between submissions")
	stormAfter := fs.Duration("storm-after", 0, "inject a synthetic steal storm this long after start (0 = never; CI anomaly self-test)")
	stormFor := fs.Duration("storm-for", 10*time.Second, "how long the injected storm lasts")
	fs.Parse(args)

	if err := o.Validate(); err != nil {
		return o, err
	}
	specs, err := cli.AlgosFlag("-algos", *algos)
	if err != nil {
		return o, err
	}
	if err := cli.FirstError(
		cli.PositiveInt("-p", *procs),
		cli.PositiveInt("-n", *n),
		cli.PositiveInt("-phases", *phases),
		cli.NonNegativeDuration("-storm-after", *stormAfter),
	); err != nil {
		return o, err
	}
	// An armed storm that lasts no time would never fire.
	if *stormAfter > 0 {
		if err := cli.PositiveDuration("-storm-for", *stormFor); err != nil {
			return o, err
		}
	}
	for _, s := range specs {
		o.algos = append(o.algos, s.Name)
	}
	o.procs, o.n, o.phases, o.pause = *procs, *n, *phases, *pause
	o.stormAfter, o.stormFor = *stormAfter, *stormFor
	return o, nil
}

func run(args []string) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}

	// The stock objectives (submission p99, affinity-hit floor,
	// steal-share ceiling) and detector rules over the executor's plane.
	label := fmt.Sprintf("executor p=%d (%v)", o.procs, o.algos)
	st, err := daemon.Start("engineview", label, o.Flags, slo.DefaultObjectives(), watchdog.DefaultRules())
	if err != nil {
		return err
	}
	defer st.Close()

	// Size the trace store to outlive the exemplar window: the plane's
	// slow exemplars name traces from up to -window ago, so the store
	// must retain at least window/pause submissions (×4 margin) or the
	// exemplar a scraper follows with `loopdoctor trace` has already
	// been evicted.
	store := 4096
	if o.pause > 0 {
		store = min(store, 4*int(o.Window/o.pause))
	}
	tracer := repro.NewTracing(repro.TracingOptions{Store: max(store, 64)})
	ex, err := repro.NewExecutor(
		repro.WithProcs(o.procs),
		repro.WithObservability(st.Plane),
		repro.WithTracing(tracer),
	)
	if err != nil {
		return err
	}
	defer ex.Close()

	ctx, cancel := o.Context()
	defer cancel()

	// The demo workload: a stream of phased submissions over one shared
	// index space, alternating schedulers so /workers shows the paper's
	// contrast live — AFS submissions keep a high affinity-hit ratio,
	// central-queue ones sit at zero.
	//
	// The -storm-after window injects the CI anomaly: during it, the
	// first eighth of the index space does ~64× the work, so the worker
	// owning that slab lags and everyone else steals from it — steal
	// share and queue wait blow up, the affinity-hit ratio collapses,
	// and the watchdog's stock rules must catch it.
	data := make([]float64, o.n)
	t0 := time.Now()
	storming := func() bool {
		if o.stormAfter <= 0 {
			return false
		}
		since := time.Since(t0)
		return since >= o.stormAfter && since < o.stormAfter+o.stormFor
	}
	workloadDone := make(chan struct{})
	go func() {
		defer close(workloadDone)
		for round := 0; ctx.Err() == nil; round++ {
			algo := o.algos[round%len(o.algos)]
			storm := storming()
			_, err := ex.SubmitPhases(ctx, o.phases,
				func(int) int { return o.n },
				func(ph, i int) {
					reps := 1
					if storm && i < o.n/8 {
						reps = 64
					}
					for r := 0; r < reps; r++ {
						data[i] = data[i]*0.999 + float64(ph+i)
					}
				},
				repro.WithScheduler(algo))
			if err != nil {
				return
			}
			if o.pause > 0 {
				select {
				case <-time.After(o.pause):
				case <-ctx.Done():
					return
				}
			}
		}
	}()

	if o.stormAfter > 0 {
		fmt.Fprintf(os.Stderr, "engineview: steal storm armed: t+%v for %v\n", o.stormAfter, o.stormFor)
	}
	fmt.Fprintf(os.Stderr, "engineview: serving http://%s (workload: %v, p=%d, n=%d)\n",
		o.Addr, o.algos, o.procs, o.n)
	return daemon.Serve(ctx, o.Addr, st.Handler(nil), func() { <-workloadDone })
}
