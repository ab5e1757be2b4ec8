// Command perflab is the continuous performance lab's CLI: it runs the
// registered benchmark suite over both execution substrates, persists
// versioned baselines as BENCH_<n>.json at the repo root, compares
// baselines statistically, gates on regressions, and serves a live
// dashboard.
//
//	perflab run                        # full suite → BENCH_<n>.json
//	perflab run -short                 # CI-sized problems
//	perflab run -cases 'sim/.*afs'     # ID-regexp subset
//	perflab compare                    # two latest baselines → markdown
//	perflab compare -report out/       # + report.md and trend SVGs
//	perflab gate                       # re-run gate cases vs latest
//	                                   # baseline; exit 1 on regression
//	perflab serve -live                # HTML dashboard + streaming run
//	                                   # (localhost:8080; -addr to move)
//
// The gate set is simulator-only (deterministic cycle counts), so a
// committed baseline gates identically on any host. The hidden
// -inject flag multiplies a case's samples — the hook tests and CI use
// to prove the gate catches a synthetic slowdown:
//
//	perflab gate -inject 'sim/iris/gauss/afs/p8=1.25'   # must exit 1
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cli"
	"repro/internal/perflab"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "gate":
		err = cmdGate(os.Args[2:])
	case "duel":
		err = cmdDuel(os.Args[2:])
	case "overhead":
		err = cmdOverhead(os.Args[2:])
	case "slo":
		err = cmdSLO(os.Args[2:])
	case "shed":
		err = cmdShed(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "perflab: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: perflab <subcommand> [flags]

  run      execute the benchmark suite and write BENCH_<n>.json
  compare  diff two baselines (markdown report, trend SVGs)
  gate     re-run gate cases against the latest baseline; exit 1 on
           a statistically significant regression
  duel     race two registered cases head to head; exit 1 unless the
           expected winner's median beats the loser's by -margin
  overhead run an instrumented case against its bare twin; exit 1 if
           median(instrumented)/median(bare) exceeds -budget
  slo      run an instrumented workload and score it against the
           declarative service objectives (p99 ceiling, affinity-hit
           floor, steal-share ceiling); exit 1 if any objective's
           burn rate breaches in all of its windows
  shed     deterministic two-tenant overload against the serving
           layer: a tenant at quota must keep its full fair share
           while a tenant at 4x quota has exactly its excess shed as
           typed 429s; exit 1 on any violation
  serve    live HTML dashboard over the baseline history

Run 'perflab <subcommand> -h' for flags.
`)
}

// suiteFlags are the case-selection flags shared by run and gate.
type suiteFlags struct {
	short     *bool
	cases     *string
	substrate *string
	dir       *string
	seed      *uint64
	inject    *string
}

func addSuiteFlags(fs *flag.FlagSet, defaultSubstrate string) suiteFlags {
	return suiteFlags{
		short:     fs.Bool("short", false, "CI-sized problems and repeat counts"),
		cases:     fs.String("cases", "", "regexp filtering case IDs"),
		substrate: fs.String("substrate", defaultSubstrate, "sim, real, or both"),
		dir:       fs.String("dir", ".", "baseline directory (the repo root)"),
		seed:      fs.Uint64("seed", 1, "run seed (bootstrap + simulator jitter)"),
		inject:    fs.String("inject", "", "testing hook: 'caseID=factor,...' multiplies samples"),
	}
}

func (sf suiteFlags) select_(gateOnly bool) ([]perflab.Case, *perflab.Runner, error) {
	cases, err := perflab.DefaultRegistry(*sf.short).Filter(*sf.cases, *sf.substrate, gateOnly)
	if err != nil {
		return nil, nil, err
	}
	if len(cases) == 0 {
		return nil, nil, fmt.Errorf("perflab: no cases match -cases %q -substrate %q", *sf.cases, *sf.substrate)
	}
	// Offending-flag validation shared with realbench and loopdoctor.
	inject, err := cli.InjectFlag("-inject", *sf.inject)
	if err != nil {
		return nil, nil, err
	}
	return cases, &perflab.Runner{BaseSeed: *sf.seed, Inject: inject}, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("perflab run", flag.ExitOnError)
	sf := addSuiteFlags(fs, "both")
	fs.Parse(args)
	cases, runner, err := sf.select_(false)
	if err != nil {
		return err
	}
	runner.Progress = func(done, total int, res perflab.CaseResult) {
		fmt.Fprintf(os.Stderr, "[%d/%d] %s  median %.4gs\n", done, total, res.ID, res.Summary.Median)
	}
	results, err := runner.Run(cases)
	if err != nil {
		return err
	}
	b := perflab.NewBaseline(*sf.dir, *sf.short, *sf.seed, results)
	path, err := perflab.WriteNext(*sf.dir, b)
	if err != nil {
		return err
	}
	perflab.SummaryTable(fmt.Sprintf("perflab run → %s", path), results).Render(os.Stdout)
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("perflab compare", flag.ExitOnError)
	dir := fs.String("dir", ".", "baseline directory")
	oldPath := fs.String("old", "", "old baseline file (default: second-latest BENCH_<n>.json)")
	newPath := fs.String("new", "", "new baseline file (default: latest BENCH_<n>.json)")
	threshold := fs.Float64("threshold", perflab.DefaultThreshold, "relative median movement considered significant")
	report := fs.String("report", "", "directory receiving report.md and trend SVGs (default: stdout only)")
	fs.Parse(args)

	old, new_, err := pickPair(*dir, *oldPath, *newPath)
	if err != nil {
		return err
	}
	cmp := perflab.Compare(old, new_, *threshold)
	perflab.WriteReport(os.Stdout, cmp, old, new_)
	if *report != "" {
		if err := os.MkdirAll(*report, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*report, "report.md"))
		if err != nil {
			return err
		}
		perflab.WriteReport(f, cmp, old, new_)
		if err := f.Close(); err != nil {
			return err
		}
		baselines, err := perflab.LoadAll(*dir)
		if err != nil {
			return err
		}
		paths, err := perflab.WriteTrendSVGs(*report, baselines)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote report.md and %d trend SVGs to %s\n", len(paths), *report)
	}
	return nil
}

func pickPair(dir, oldPath, newPath string) (old, new_ *perflab.Baseline, err error) {
	files, err := perflab.BaselineFiles(dir)
	if err != nil {
		return nil, nil, err
	}
	if newPath == "" {
		if len(files) < 1 {
			return nil, nil, fmt.Errorf("perflab: no BENCH_<n>.json in %s", dir)
		}
		newPath = files[len(files)-1]
	}
	if oldPath == "" {
		if len(files) < 2 {
			return nil, nil, fmt.Errorf("perflab: need two baselines in %s to compare (have %d)", dir, len(files))
		}
		oldPath = files[len(files)-2]
	}
	if old, err = perflab.Load(oldPath); err != nil {
		return nil, nil, err
	}
	if new_, err = perflab.Load(newPath); err != nil {
		return nil, nil, err
	}
	return old, new_, nil
}

func cmdGate(args []string) error {
	fs := flag.NewFlagSet("perflab gate", flag.ExitOnError)
	sf := addSuiteFlags(fs, "sim")
	threshold := fs.Float64("threshold", perflab.DefaultThreshold, "relative median movement considered significant")
	forensicsDir := fs.String("forensics", "", "on failure, write per-regression forensic attribution reports into this directory")
	fs.Parse(args)

	baseline, err := perflab.Latest(*sf.dir)
	if err != nil {
		return err
	}
	if baseline == nil {
		fmt.Fprintf(os.Stderr, "perflab gate: no baseline in %s — nothing to gate against (run 'perflab run' first)\n", *sf.dir)
		return nil
	}
	if err := baseline.CheckCompatible(*sf.short, *sf.seed); err != nil {
		return err
	}
	if baseline.Seed == 0 {
		fmt.Fprintf(os.Stderr, "perflab gate: warning: baseline %d predates seed recording; cannot verify it matches -seed %d\n",
			baseline.Seq, *sf.seed)
	}
	cases, runner, err := sf.select_(true)
	if err != nil {
		return err
	}
	runner.Progress = func(done, total int, res perflab.CaseResult) {
		fmt.Fprintf(os.Stderr, "[%d/%d] %s  median %.4gs\n", done, total, res.ID, res.Summary.Median)
	}
	results, err := runner.Run(cases)
	if err != nil {
		return err
	}
	current := perflab.NewBaseline(*sf.dir, *sf.short, *sf.seed, results)
	current.Seq = baseline.Seq + 1 // unwritten; numbered for the report only
	// Restrict the old baseline to the gated set so un-run cases (the
	// real substrate, filtered-out IDs) don't report as "removed".
	gated := *baseline
	gated.Cases = nil
	for _, c := range cases {
		if old := baseline.Lookup(c.ID); old != nil {
			gated.Cases = append(gated.Cases, *old)
		}
	}
	cmp := perflab.Compare(&gated, current, *threshold)
	perflab.WriteReport(os.Stdout, cmp, &gated, current)
	gateErr := cmp.GateErr()
	if gateErr != nil && *forensicsDir != "" {
		paths, ferr := perflab.WriteGateForensics(*forensicsDir, cmp, &gated, current, *sf.seed)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "perflab gate: writing forensics: %v\n", ferr)
		}
		for _, p := range paths {
			fmt.Fprintf(os.Stderr, "perflab gate: forensic attribution → %s\n", p)
		}
	}
	return gateErr
}

// cmdDuel races two registered cases and fails unless the expected
// winner's median beats the loser's by the margin. CI's perf-smoke job
// uses it to hold the headline claim for the persistent executor:
// reusing one pool across a stream of small loops must stay faster
// than paying per-call spawn/teardown (the many-small-loops pair).
func cmdDuel(args []string) error {
	fs := flag.NewFlagSet("perflab duel", flag.ExitOnError)
	fast := fs.String("fast", "real/many-small-loops/executor/p4", "case expected to win")
	slow := fs.String("slow", "real/many-small-loops/percall/p4", "case expected to lose")
	margin := fs.Float64("margin", 1.0, "required speedup: median(slow)/median(fast) must reach this")
	short := fs.Bool("short", false, "CI-sized problems and repeat counts")
	seed := fs.Uint64("seed", 1, "run seed")
	fs.Parse(args)
	if err := cli.PositiveFloat("-margin", *margin); err != nil {
		return err
	}
	mFast, mSlow, err := runPair("perflab duel", *short, *seed, *fast, *slow)
	if err != nil {
		return err
	}
	if mFast <= 0 {
		return fmt.Errorf("perflab duel: %s median %.4gs is not positive; cannot judge", *fast, mFast)
	}
	speedup := mSlow / mFast
	fmt.Printf("perflab duel: %s %.4gs vs %s %.4gs — speedup %.2fx (need >= %.2fx)\n",
		*fast, mFast, *slow, mSlow, speedup, *margin)
	if speedup < *margin {
		return fmt.Errorf("perflab duel: %s did not beat %s by %.2fx (got %.2fx)",
			*fast, *slow, *margin, speedup)
	}
	return nil
}

// cmdOverhead is the observability-overhead budget check: it runs an
// instrumented case and its bare twin back to back and fails when the
// instrumented median exceeds the bare median by more than -budget.
// The default pair is steady-loops — realistic loop sizes, where the
// measured cost of a live plane plus an aggressive scraper is a few
// percent; the default budget adds headroom for wall-time noise on
// shared CI hosts. CI also checks the many-small-loops pair (~100ns
// chunk bodies, the deliberate worst case, ~2.5x on a single-CPU
// host) at a loose budget, so a hot-path instrument regression — a
// lock on the chunk path, an allocation per observation — shows up
// before it ships.
func cmdOverhead(args []string) error {
	fs := flag.NewFlagSet("perflab overhead", flag.ExitOnError)
	bare := fs.String("bare", "real/steady-loops/executor/p4", "uninstrumented case")
	obs := fs.String("obs", "real/steady-loops/executor-obs/p4", "instrumented case")
	budget := fs.Float64("budget", 1.2, "max allowed median(obs)/median(bare) ratio")
	short := fs.Bool("short", false, "CI-sized problems and repeat counts")
	seed := fs.Uint64("seed", 1, "run seed")
	fs.Parse(args)
	if err := cli.PositiveFloat("-budget", *budget); err != nil {
		return err
	}
	mBare, mObs, err := runPair("perflab overhead", *short, *seed, *bare, *obs)
	if err != nil {
		return err
	}
	if mBare <= 0 {
		return fmt.Errorf("perflab overhead: %s median %.4gs is not positive; cannot judge", *bare, mBare)
	}
	ratio := mObs / mBare
	fmt.Printf("perflab overhead: %s %.4gs vs %s %.4gs — ratio %.3fx (budget %.2fx)\n",
		*bare, mBare, *obs, mObs, ratio, *budget)
	if ratio > *budget {
		return fmt.Errorf("perflab overhead: observability costs %.3fx over the bare case (budget %.2fx)",
			ratio, *budget)
	}
	return nil
}

// runPair looks up two registered cases, runs them bare in order with
// the progress printer, and returns their medians: the measurement
// behind both duel and overhead. cmd prefixes the unknown-case error.
func runPair(cmd string, short bool, seed uint64, first, second string) (m1, m2 float64, err error) {
	reg := perflab.DefaultRegistry(short)
	var pair []perflab.Case
	for _, id := range []string{first, second} {
		c, ok := reg.Get(id)
		if !ok {
			return 0, 0, fmt.Errorf("%s: unknown case %q", cmd, id)
		}
		pair = append(pair, c)
	}
	runner := &perflab.Runner{BaseSeed: seed, Bare: true}
	runner.Progress = func(done, total int, res perflab.CaseResult) {
		fmt.Fprintf(os.Stderr, "[%d/%d] %s  median %.4gs\n", done, total, res.ID, res.Summary.Median)
	}
	results, err := runner.Run(pair)
	if err != nil {
		return 0, 0, err
	}
	return results[0].Summary.Median, results[1].Summary.Median, nil
}

// cmdSLO is the service-objective gate: it runs a real executor
// workload with the observability plane and span tracer attached,
// ticks the burn-rate engine once per submission, prints the report,
// and fails if any objective breaches. A built-in self-test scores the
// same workload against impossible objectives and insists they DO
// breach, so a silently broken evaluator cannot produce a vacuous
// green.
func cmdSLO(args []string) error {
	fs := flag.NewFlagSet("perflab slo", flag.ExitOnError)
	short := fs.Bool("short", false, "CI-sized workload")
	procs := fs.Int("p", 0, "worker goroutines (0 = min(4, NumCPU), so CI hosts are not oversubscribed)")
	n := fs.Int("n", 1<<16, "iterations per loop")
	loops := fs.Int("loops", 40, "submissions in the stream")
	fs.Parse(args)
	if err := cli.FirstError(
		cli.PositiveInt("-n", *n),
		cli.PositiveInt("-loops", *loops),
	); err != nil {
		return err
	}
	if *procs != 0 {
		if err := cli.PositiveInt("-p", *procs); err != nil {
			return err
		}
	}
	if *short {
		*n, *loops = 1<<13, 12
	}
	res, err := perflab.RunSLOGate(perflab.SLOGateOptions{Procs: *procs, N: *n, Loops: *loops})
	if err != nil {
		return err
	}
	fmt.Printf("perflab slo: %d evaluations, self-test breached as expected\n", res.Report.Ticks)
	for _, o := range res.Report.Objectives {
		val := "unobserved"
		if o.Observed {
			val = fmt.Sprintf("%.4g", o.Value)
		}
		verdict := "ok"
		if o.Breaching {
			verdict = "BREACHING"
		}
		fmt.Printf("  %-22s %-22s value %-12s %s\n", o.Name, string(o.Metric), val, verdict)
		for _, w := range o.Windows {
			fmt.Printf("    window %4.0fs: %3d samples, bad %.3f, burn %.2f (max %.2f)\n",
				w.DurationSecs, w.Samples, w.BadFraction, w.BurnRate, w.MaxBurn)
		}
	}
	if res.Report.Breaching {
		return fmt.Errorf("perflab slo: objective breaching — see report above")
	}
	return nil
}

// cmdShed is the overload-protection gate for the serving layer: a
// deterministic two-tenant overload on an injected clock (see
// perflab.RunShedGate). CI's obs-smoke job runs it so the acceptance
// property of loop-scheduling-as-a-service — favored tenants keep
// their fair share under a 4x-quota aggressor, excess sheds as 429 —
// cannot regress silently.
func cmdShed(args []string) error {
	fs := flag.NewFlagSet("perflab shed", flag.ExitOnError)
	procs := fs.Int("p", 2, "workers per executor shard")
	rounds := fs.Int("rounds", 25, "quota periods to run")
	overload := fs.Int("overload", 4, "aggressive-tenant submissions per period (multiples of quota)")
	n := fs.Int("n", 256, "spin iterations per job")
	fs.Parse(args)
	if err := cli.FirstError(
		cli.PositiveInt("-p", *procs),
		cli.PositiveInt("-rounds", *rounds),
		cli.PositiveInt("-overload", *overload),
		cli.PositiveInt("-n", *n),
	); err != nil {
		return err
	}
	res, err := perflab.RunShedGate(perflab.ShedGateOptions{
		Procs: *procs, Rounds: *rounds, Overload: *overload, N: *n,
	})
	fmt.Printf("perflab shed: %d rounds at %dx quota — steady %d/%d (%.0f%% of fair share), aggressive %d admitted / %d shed, control %d/%d, backlog peak %d/%d\n",
		res.Rounds, res.Overload, res.SteadyGoodput, res.Rounds, 100*res.SteadyShare,
		res.AggressiveAdmitted, res.AggressiveShed, res.ControlGoodput, res.Rounds,
		res.MaxQueued, res.QueueLimit)
	if err != nil {
		return fmt.Errorf("perflab shed: %w", err)
	}
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("perflab serve", flag.ExitOnError)
	sf := addSuiteFlags(fs, "both")
	// localhost by default: the mux exposes /debug/pprof and
	// /debug/vars unauthenticated, so binding all interfaces must be an
	// explicit choice.
	addr := fs.String("addr", "localhost:8080", "listen address")
	live := fs.Bool("live", false, "execute the suite in the background, streaming results to the dashboard")
	fs.Parse(args)
	if _, err := cli.AddrFlag("-addr", *addr); err != nil {
		return err
	}

	state := &perflab.LiveState{}
	if *live {
		cases, runner, err := sf.select_(false)
		if err != nil {
			return err
		}
		runner.Progress = state.Record
		go func() {
			state.Begin(len(cases))
			results, err := runner.Run(cases)
			if err == nil {
				b := perflab.NewBaseline(*sf.dir, *sf.short, *sf.seed, results)
				if _, werr := perflab.WriteNext(*sf.dir, b); werr != nil {
					err = werr
				}
			}
			state.Finish(err)
		}()
	}
	url := *addr
	if strings.HasPrefix(url, ":") {
		url = "localhost" + url
	}
	fmt.Fprintf(os.Stderr, "perflab: dashboard on http://%s (live run: %v)\n", url, *live)
	return http.ListenAndServe(*addr, perflab.NewServer(*sf.dir, state))
}
