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
//	/metrics.prom Prometheus text exposition (plane + SLO series)
//	/workers      per-worker ownership, affinity-hit ratio, steal
//	              rate, queue depth
//	/flight       flight-recorder dump (?format=jsonl|chrome|trace,
//	              ?which=live|anomaly)
//	/traces       recent span traces; /trace?id=N one span tree
//	              (?format=json|gantt|trace)
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
// batteries-included harness around them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro"
	"repro/internal/bundle"
	"repro/internal/cli"
	"repro/internal/runtimeobs"
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
	addr       string
	procs      int
	n          int
	phases     int
	algos      []string
	pause      time.Duration
	window     time.Duration
	flight     int
	duration   time.Duration
	bundles    string
	wdTick     time.Duration
	stormAfter time.Duration
	stormFor   time.Duration
}

// parseArgs resolves and validates the flag set (internal/cli
// validators, so bad values name their flag).
func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("engineview", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8077", "HTTP listen address (host:port)")
	procs := fs.Int("p", 4, "worker goroutines")
	n := fs.Int("n", 1<<16, "iterations per parallel loop")
	phases := fs.Int("phases", 8, "phases per submission")
	algos := fs.String("algos", "afs,gss", "comma-separated schedulers the demo workload alternates")
	pause := fs.Duration("pause", 50*time.Millisecond, "pause between submissions")
	window := fs.Duration("window", 10*time.Second, "rolling-quantile window")
	flight := fs.Int("flight", 4096, "flight-recorder event capacity")
	duration := fs.Duration("duration", 0, "stop after this long (0 = run until killed)")
	bundles := fs.String("bundles", "", "capture watchdog diagnostic bundles into this directory (empty = watchdog only, no capture)")
	wdTick := fs.Duration("watchdog-tick", 250*time.Millisecond, "watchdog detector tick interval")
	stormAfter := fs.Duration("storm-after", 0, "inject a synthetic steal storm this long after start (0 = never; CI anomaly self-test)")
	stormFor := fs.Duration("storm-for", 10*time.Second, "how long the injected storm lasts")
	fs.Parse(args)

	var o options
	var err error
	if o.addr, err = cli.AddrFlag("-addr", *addr); err != nil {
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
		cli.PositiveInt("-flight", *flight),
	); err != nil {
		return o, err
	}
	if len(specs) == 0 {
		return o, fmt.Errorf("-algos must name at least one scheduler")
	}
	for _, s := range specs {
		o.algos = append(o.algos, s.Name)
	}
	if err := cli.PositiveDuration("-watchdog-tick", *wdTick); err != nil {
		return o, err
	}
	o.procs, o.n, o.phases = *procs, *n, *phases
	o.pause, o.window, o.flight, o.duration = *pause, *window, *flight, *duration
	o.bundles, o.wdTick = *bundles, *wdTick
	o.stormAfter, o.stormFor = *stormAfter, *stormFor
	return o, nil
}

func run(args []string) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}

	plane := repro.NewObservability(repro.ObservabilityOptions{
		Window:       o.window,
		FlightEvents: o.flight,
		FlightProv:   o.flight / 2,
	})
	defer plane.Close()

	// Size the trace store to outlive the exemplar window: the plane's
	// slow exemplars name traces from up to -window ago, so the store
	// must retain at least window/pause submissions (×4 margin) or the
	// exemplar a scraper follows with `loopdoctor trace` has already
	// been evicted.
	store := 4096
	if o.pause > 0 {
		if s := 4 * int(o.window/o.pause); s < store {
			store = s
		}
	}
	if store < 64 {
		store = 64
	}
	tracer := repro.NewTracing(repro.TracingOptions{Store: store})
	ex, err := repro.NewExecutor(
		repro.WithProcs(o.procs),
		repro.WithObservability(plane),
		repro.WithTracing(tracer),
	)
	if err != nil {
		return err
	}
	defer ex.Close()

	// The SLO engine scores the plane's snapshots against the default
	// objectives (submission p99, affinity-hit floor, steal-share
	// ceiling) once a second; /slo serves the burn-rate report and
	// /metrics.prom carries the loopsched_slo_* series.
	sloEng, err := slo.New(plane.Snapshot, slo.DefaultObjectives(), slo.Options{})
	if err != nil {
		return err
	}
	stopSLO := sloEng.Start(time.Second)
	defer stopSLO()

	// The Go-runtime correlation source: GC pause and scheduler-latency
	// quantiles ride along in every plane snapshot and the combined
	// scrape, so an affinity collapse and runtime pressure are one view.
	sampler := runtimeobs.NewSampler()
	stopSampler := sampler.Start(time.Second)
	defer stopSampler()
	plane.SetRuntimeSource(sampler.SnapshotAny)

	label := fmt.Sprintf("executor p=%d (%v)", o.procs, o.algos)

	// The auto-triage loop: the watchdog watches the plane's own
	// signals; when a rule fires, the attached capturer freezes a
	// diagnostic bundle into the bounded -bundles store.
	wd, err := watchdog.New(plane.Snapshot, watchdog.DefaultRules(), watchdog.Options{
		SLO:        sloEng,
		AnomalySeq: plane.Recorder().AnomalySeq,
	})
	if err != nil {
		return err
	}
	var bstore *bundle.Store
	if o.bundles != "" {
		bstore, err = bundle.OpenStore(o.bundles, bundle.StoreOptions{})
		if err != nil {
			return err
		}
		capt, err := bundle.NewCapturer(bstore, bundle.Sources{
			Plane: plane, SLO: sloEng, Runtime: sampler, Label: label,
		}, bundle.Options{})
		if err != nil {
			return err
		}
		bundle.Attach(wd, capt, func(err error) {
			fmt.Fprintln(os.Stderr, "engineview: bundle capture:", err)
		})
	}
	wd.OnTrigger(func(t watchdog.Trigger) {
		fmt.Fprintf(os.Stderr, "engineview: watchdog fired: %s (%s)\n", t.Rule, t.Reason)
	})
	stopWD := wd.Start(o.wdTick)
	defer stopWD()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if o.duration > 0 {
		ctx, cancel = context.WithTimeout(ctx, o.duration)
		defer cancel()
	}

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

	obsHandler := repro.ObservabilityHandler(plane, label)
	mux := http.NewServeMux()
	mux.Handle("/", obsHandler)
	mux.Handle("/slo", slo.Handler(sloEng, label))
	serveJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	mux.HandleFunc("/watchdog", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, wd.Status())
	})
	mux.HandleFunc("/runtime", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, sampler.Snapshot())
	})
	mux.HandleFunc("/bundles", func(w http.ResponseWriter, r *http.Request) {
		if bstore == nil {
			http.Error(w, "bundle capture disabled (start engineview with -bundles DIR)", http.StatusNotFound)
			return
		}
		bundle.ServeList(w, bstore)
	})
	mux.HandleFunc("/bundle", func(w http.ResponseWriter, r *http.Request) {
		if bstore == nil {
			http.Error(w, "bundle capture disabled (start engineview with -bundles DIR)", http.StatusNotFound)
			return
		}
		bundle.ServeBundle(w, r, bstore)
	})
	// Override the plane's /metrics.prom with a combined exposition —
	// plane, SLO, watchdog, and runtime series in one scrape, routed
	// through a family deduper so a family declared by two writers
	// keeps a single # HELP/# TYPE (real Prometheus rejects repeats).
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		bundle.WriteCombinedProm(w, plane, sloEng, wd, sampler)
	})

	srv := &http.Server{
		Addr:    o.addr,
		Handler: mux,
	}
	if o.stormAfter > 0 {
		fmt.Fprintf(os.Stderr, "engineview: steal storm armed: t+%v for %v\n", o.stormAfter, o.stormFor)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "engineview: serving http://%s (workload: %v, p=%d, n=%d)\n",
		o.addr, o.algos, o.procs, o.n)

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		<-workloadDone
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer shutCancel()
		return srv.Shutdown(shutCtx)
	}
}
