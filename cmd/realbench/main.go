// Command realbench sweeps worker counts on the REAL goroutine runtime
// for one of the paper's kernels and prints completion time, speedup
// and scheduling activity per algorithm — the live-hardware counterpart
// of cmd/paperfigs' simulations. On a multicore host the speedup
// columns show each scheduler's scaling; the sync-op columns always
// reflect the real protocol behaviour.
//
//	realbench -kernel gauss -n 512 -workers 1,2,4,8
//	realbench -kernel adjoint -n 64 -algos gss,factoring,afs
//	realbench -kernel gauss -json                      # machine-readable tables
//	realbench -kernel gauss -trace-out trace.json      # Chrome/Perfetto trace
//	realbench -kernel sor -metrics-out series.csv -check
//	realbench -kernel gauss -pprof :6060               # live pprof + expvar
//	realbench -kernel tc-skew -queue-depths            # per-queue backlog, derived from the chunk records
//
// Table 2 (§4.5) on real goroutines — a balanced loop whose worker 0
// starts late:
//
//	realbench -kernel spin -n 200000 -phases 1 -start-delay 10ms -algos 'gss,trapezoid,factoring,afs(k=2),afs'
//
// Kernels come from the job registry (internal/job), the same builds
// that serve and perfbench run; each run is one phased submission.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/forensics"
	"repro/internal/job"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func main() {
	var (
		kernelName = flag.String("kernel", "gauss", "kernel: "+strings.Join(job.Names(), ", "))
		n          = flag.Int("n", 384, "problem size")
		phases     = flag.Int("phases", 16, "phases for kernels with a free phase count (sor sweeps, l4 outer iterations, spin*)")
		workers    = flag.String("workers", defaultWorkers(), "comma-separated worker counts")
		algosFlag  = flag.String("algos", "static,ss,gss,factoring,trapezoid,afs,mod-factoring", "algorithms")
		repeats    = flag.Int("repeats", 3, "runs per cell (median reported)")
		jsonOut    = flag.Bool("json", false, "emit the tables as machine-readable JSON instead of text")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event file of one instrumented run")
		metricsOut = flag.String("metrics-out", "", "write the per-phase metrics time series as CSV")
		check      = flag.Bool("check", false, "verify the event stream against the paper's invariants")
		traceAlgo  = flag.String("trace-algo", "afs", "algorithm for the instrumented -trace-out/-metrics-out/-check run")
		queueDepth = flag.Bool("queue-depths", false, "print each work queue's backlog over the instrumented run, derived from its chunk records")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. :6060) during the sweep")
		startDelay = flag.Duration("start-delay", 0, "delay worker 0's start by this long in every run (§4.5 / Table 2)")
	)
	// Flag-parse errors must exit non-zero like every other error path:
	// flag's ExitOnError already exits 2, but a custom Usage keeps the
	// message on stderr and the behaviour explicit.
	flag.CommandLine.SetOutput(os.Stderr)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments: %v", flag.Args()))
	}
	// Validation errors name the offending flag (shared with perflab
	// and loopdoctor via internal/cli): an unknown algorithm or a bad
	// worker count must exit non-zero with a pointer to the flag,
	// never fall through to an empty or degenerate sweep.
	if err := validateArgs(*n, *phases, *repeats, *startDelay); err != nil {
		fatal(err)
	}
	counts, err := cli.ProcsFlag("-workers", *workers)
	if err != nil {
		fatal(err)
	}
	specs, err := cli.AlgosFlag("-algos", *algosFlag)
	if err != nil {
		fatal(err)
	}
	run, desc, err := realKernel(*kernelName, *n, *phases, *startDelay)
	if err != nil {
		fatal(err)
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "realbench: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "serving /debug/pprof and /debug/vars on %s\n", *pprofAddr)
	}

	if !*jsonOut {
		fmt.Printf("%s — real goroutine runtime on %d host CPUs\n\n", desc, runtime.NumCPU())
	}
	cols := []string{"workers"}
	for _, s := range specs {
		cols = append(cols, s.Name)
	}
	timeTab := stats.NewTable("median wall time", cols...)
	opsTab := stats.NewTable("total sync ops (single run)", cols...)
	for _, w := range counts {
		trow := []string{strconv.Itoa(w)}
		orow := []string{strconv.Itoa(w)}
		for _, spec := range specs {
			var times []float64
			var ops int64
			for r := 0; r < *repeats; r++ {
				st, err := run(w, spec.Name)
				if err != nil {
					fatal(err)
				}
				times = append(times, float64(st.Elapsed))
				ops = st.TotalSyncOps()
			}
			trow = append(trow, time.Duration(stats.Median(times)).Round(10*time.Microsecond).String())
			orow = append(orow, strconv.FormatInt(ops, 10))
		}
		timeTab.AddRow(trow...)
		opsTab.AddRow(orow...)
	}
	if *jsonOut {
		if err := stats.WriteTablesJSON(os.Stdout, timeTab, opsTab); err != nil {
			fatal(err)
		}
	} else {
		timeTab.Render(os.Stdout)
		fmt.Println()
		opsTab.Render(os.Stdout)
	}

	x := cli.Export{TraceOut: *traceOut, MetricsOut: *metricsOut, Check: *check}
	if x.Wanted() || *queueDepth {
		if err := instrumentedRun(run, counts, *traceAlgo, desc, x, *queueDepth); err != nil {
			fatal(err)
		}
	}
}

// instrumentedRun executes one extra run at the largest worker count
// with full telemetry, then exports and/or verifies the stream as x
// asks, and prints the derived queue backlog when depths is set.
func instrumentedRun(run runFunc, counts []int, algo, desc string, x cli.Export, depths bool) error {
	w := counts[len(counts)-1]
	stream, reg := telemetry.NewLog[telemetry.Event](), telemetry.NewRegistry()
	expvar.Publish("telemetry_events", expvar.Func(func() any { return stream.Len() }))
	opts := []repro.Option{repro.WithEvents(stream), repro.WithMetrics(reg)}
	var prov *repro.ProvenanceStream
	if depths {
		prov = repro.NewProvenanceStream()
		opts = append(opts, repro.WithProvenance(prov))
	}
	if _, err := run(w, algo, opts...); err != nil {
		return err
	}
	if depths {
		depthTable(prov.Records(), algo, w).Render(os.Stdout)
	}
	x.Chrome = telemetry.ChromeOptions{
		Label:     fmt.Sprintf("%s, %s, %d workers (real runtime)", desc, algo, w),
		Procs:     w,
		TimeScale: 1e-3, // ns → µs
	}
	x.Run = fmt.Sprintf("%s on %d workers", algo, w)
	return x.Write(os.Stderr, stream.Records(), reg)
}

// runFunc runs one fresh instance of the kernel under a worker count
// and scheduler name, plus any extra options.
type runFunc func(workers int, algo string, opts ...repro.Option) (repro.RunStats, error)

// depthTable summarises each work queue's backlog over the
// instrumented run, derived from its chunk records: how deep each queue
// ran — the real runtime's view of the imbalance AFS's stealing is
// meant to drain.
func depthTable(prov []telemetry.Prov, algo string, workers int) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("queue depths (%s, %d workers, derived from %d chunk records)", algo, workers, len(prov)),
		"queue", "max", "mean", "nonempty")
	for _, q := range forensics.QueueBacklogs(prov) {
		name := strconv.Itoa(q.Queue)
		if q.Queue < 0 {
			name = "central"
		}
		t.AddRow(name, strconv.Itoa(q.Max), fmt.Sprintf("%.1f", q.Mean), fmt.Sprintf("%.0f%%", 100*q.Nonempty))
	}
	return t
}

// realKernel builds the named job-registry kernel once, so an unknown
// name fails before the sweep and the header reports the phase count
// the kernel really runs, and returns a runner that builds a fresh
// instance per run and executes it as one phased submission.
func realKernel(name string, n, phases int, startDelay time.Duration) (runFunc, string, error) {
	k, err := job.Lookup(name)
	if err != nil {
		return nil, "", fmt.Errorf("-kernel: %w", err)
	}
	spec := job.Spec{Kernel: name, Params: job.Params{N: n, Phases: phases}}
	probe, err := job.Build(spec)
	if err != nil {
		return nil, "", err
	}
	desc := fmt.Sprintf("%s: %s, n=%d, phases=%d", name, k.Description, n, probe.Phases)
	run := func(w int, algo string, opts ...repro.Option) (repro.RunStats, error) {
		r, err := job.Build(spec)
		if err != nil {
			return repro.RunStats{}, err
		}
		opts = append(opts, repro.WithScheduler(algo), repro.WithProcs(w))
		if startDelay > 0 {
			opts = append(opts, repro.WithStartDelay(startDelay))
		}
		return repro.ForPhases(r.Phases, r.N, r.Body, opts...)
	}
	return run, desc, nil
}

// validateArgs rejects degenerate sweep parameters up front — with
// -repeats 0 there is no sample to take the median of, and a
// non-positive problem size yields a meaningless zero-row sweep.
func validateArgs(n, phases, repeats int, startDelay time.Duration) error {
	return cli.FirstError(
		cli.PositiveInt("-repeats", repeats),
		cli.PositiveInt("-n", n),
		cli.PositiveInt("-phases", phases),
		cli.NonNegativeDuration("-start-delay", startDelay),
	)
}

func defaultWorkers() string {
	max := runtime.NumCPU()
	s := "1"
	for w := 2; w <= max; w *= 2 {
		s += "," + strconv.Itoa(w)
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "realbench:", err)
	os.Exit(1)
}
