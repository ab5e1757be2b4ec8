// Command loopsched runs ad-hoc loop-scheduling simulations: pick a
// machine model, a kernel, one or more algorithms and processor counts,
// and get the completion times and synchronisation counts. It is the
// simulator twin of cmd/realbench.
//
// One instrumented run — the last algorithm at the largest processor
// count — can draw a text Gantt chart (-trace), export its event
// stream as a Chrome trace (-trace-out) and its per-phase metrics as
// CSV (-metrics-out), and verify the stream against the paper's
// invariants (-check).
//
// Examples:
//
//	loopsched -machine iris -kernel sor -n 512 -phases 10 -procs 1,2,4,8
//	loopsched -machine ksr1 -kernel gauss -n 1024 -procs 16 -algos afs,gss,trapezoid
//	loopsched -machine butterfly -kernel step -n 50000 -procs 56 -sync
//	loopsched -kernel gauss -n 64 -procs 8 -algos afs -trace
//	loopsched -kernel gauss -n 64 -procs 8 -algos afs -trace-out t.json -metrics-out s.csv -check
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/cli"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "loopsched:", err)
		os.Exit(1)
	}
}

// run parses args and runs the sweep and any instrumented run. A flag
// that does not parse exits 2 from the flag package.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loopsched", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		machineName = fs.String("machine", "iris", "machine model: iris, butterfly, symmetry, ksr1, ideal")
		kernelName  = fs.String("kernel", "sor", "kernel: sor, gauss, tc-random, tc-skew, adjoint, adjoint-rev, l4, triangular, parabolic, step, irregular, balanced")
		n           = fs.Int("n", 512, "problem size (matrix dimension, nodes, or iteration count)")
		phases      = fs.Int("phases", 10, "outer sequential loop count (sor)")
		procsFlag   = fs.String("procs", "1,2,4,8", "comma-separated processor counts")
		algosFlag   = fs.String("algos", "ss,gss,factoring,trapezoid,static,afs,mod-factoring,best-static", "comma-separated algorithms")
		seed        = fs.Int64("seed", 1, "workload seed")
		showSync    = fs.Bool("sync", false, "also print synchronisation-operation counts")
		csv         = fs.Bool("csv", false, "emit CSV instead of aligned text")
		showTrace   = fs.Bool("trace", false, "print a Gantt chart of the last algorithm at the largest processor count")
		traceOut    = fs.String("trace-out", "", "write a Chrome trace-event file of that instrumented run")
		metricsOut  = fs.String("metrics-out", "", "write its per-phase metrics time series as CSV")
		check       = fs.Bool("check", false, "verify its event stream against the paper's invariants")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *csv && *showTrace {
		return errors.New("-trace: the Gantt chart has no CSV form; drop -csv or -trace")
	}

	m, err := machine.ByName(*machineName)
	if err != nil {
		return fmt.Errorf("-machine: %w", err)
	}
	procs, err := cli.ProcsFlag("-procs", *procsFlag)
	if err != nil {
		return err
	}
	specs, err := cli.AlgosFlag("-algos", *algosFlag)
	if err != nil {
		return err
	}
	build, desc, err := cli.BuildKernel(*kernelName, *n, *phases, *seed, m)
	if err != nil {
		return fmt.Errorf("-kernel: %w", err)
	}

	cols := []string{"procs"}
	for _, s := range specs {
		cols = append(cols, s.Name)
	}
	timeTab := stats.NewTable(fmt.Sprintf("%s on %s — completion time (s)", desc, m.Name), cols...)
	syncTab := stats.NewTable(fmt.Sprintf("%s on %s — total sync ops (AFS: local+remote)", desc, m.Name), cols...)

	for _, p := range procs {
		if p > m.MaxProcs {
			fmt.Fprintf(stderr, "note: %d exceeds %s's %d processors\n", p, m.Name, m.MaxProcs)
		}
		trow := []string{strconv.Itoa(p)}
		srow := []string{strconv.Itoa(p)}
		for _, s := range specs {
			res, err := sim.Run(m, p, s, build())
			if err != nil {
				return err
			}
			trow = append(trow, stats.FormatSeconds(res.Seconds))
			srow = append(srow, strconv.Itoa(res.TotalSyncOps()))
		}
		timeTab.AddRow(trow...)
		syncTab.AddRow(srow...)
	}

	if *csv {
		timeTab.CSV(stdout)
		if *showSync {
			syncTab.CSV(stdout)
		}
	} else {
		timeTab.Render(stdout)
		if *showSync {
			fmt.Fprintln(stdout)
			syncTab.Render(stdout)
		}
	}

	x := cli.Export{TraceOut: *traceOut, MetricsOut: *metricsOut, Check: *check}
	if !*showTrace && !x.Wanted() {
		return nil
	}
	// The instrumented run attaches only the observers its flags use.
	p, spec := procs[len(procs)-1], specs[len(specs)-1]
	var stream *telemetry.Log[telemetry.Event]
	var reg *telemetry.Registry
	var obs []telemetry.Observer
	if *showTrace || x.TraceOut != "" || x.Check {
		stream = telemetry.NewLog[telemetry.Event]()
		obs = append(obs, telemetry.ObserveEvents(stream, "cycles"))
	}
	if x.MetricsOut != "" {
		reg = telemetry.NewRegistry()
		obs = append(obs, telemetry.ObserveMetrics(reg, "cycles"))
	}
	if _, err := sim.RunOpts(m, p, spec, build(), sim.Options{Observer: telemetry.TeeObservers(obs...)}); err != nil {
		return err
	}
	var events []telemetry.Event
	if stream != nil {
		events = stream.Records()
	}
	if *showTrace {
		fmt.Fprintf(stdout, "\nexecution trace: %s, %d processors\n", spec.Name, p)
		gantt(stdout, events, p, 100)
		summary(stdout, events, p)
	}
	x.Chrome = telemetry.ChromeOptions{
		Label: fmt.Sprintf("%s on %s, %s, p=%d (simulated)", desc, m.Name, spec.Name, p),
		Procs: p,
		// One simulated cycle renders as 1e6/CyclesPerSec µs, so the
		// trace shows modelled real time.
		TimeScale: 1e6 / m.CyclesPerSec,
	}
	x.Run = fmt.Sprintf("%s on %d processors", spec.Name, p)
	return x.Write(stderr, events, reg)
}
