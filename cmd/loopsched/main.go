// Command loopsched runs ad-hoc loop-scheduling simulations: pick a
// machine model, a kernel, one or more algorithms and processor counts,
// and get the completion times and synchronisation counts.
//
// Examples:
//
//	loopsched -machine iris -kernel sor -n 512 -phases 10 -procs 1,2,4,8
//	loopsched -machine ksr1 -kernel gauss -n 1024 -procs 16 -algos afs,gss,trapezoid
//	loopsched -machine butterfly -kernel step -n 50000 -procs 56 -sync
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/cli"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	var (
		machineName = flag.String("machine", "iris", "machine model: iris, butterfly, symmetry, ksr1, ideal")
		kernelName  = flag.String("kernel", "sor", "kernel: sor, gauss, tc-random, tc-skew, adjoint, adjoint-rev, l4, triangular, parabolic, step, irregular, balanced")
		n           = flag.Int("n", 512, "problem size (matrix dimension, nodes, or iteration count)")
		phases      = flag.Int("phases", 10, "outer sequential loop count (sor)")
		procsFlag   = flag.String("procs", "1,2,4,8", "comma-separated processor counts")
		algosFlag   = flag.String("algos", "ss,gss,factoring,trapezoid,static,afs,mod-factoring,best-static", "comma-separated algorithms")
		seed        = flag.Int64("seed", 1, "workload seed")
		showSync    = flag.Bool("sync", false, "also print synchronisation-operation counts")
		csv         = flag.Bool("csv", false, "emit CSV instead of aligned text")
		showTrace   = flag.Bool("trace", false, "print a Gantt chart of the last algorithm at the largest processor count")
	)
	flag.Parse()

	m, err := machine.ByName(*machineName)
	if err != nil {
		fatal(err)
	}
	procs, err := cli.ProcsFlag("-procs", *procsFlag)
	if err != nil {
		fatal(err)
	}
	specs, err := cli.AlgosFlag("-algos", *algosFlag)
	if err != nil {
		fatal(err)
	}
	build, desc, err := cli.BuildKernel(*kernelName, *n, *phases, *seed, m)
	if err != nil {
		fatal(err)
	}

	cols := []string{"procs"}
	for _, s := range specs {
		cols = append(cols, s.Name)
	}
	timeTab := stats.NewTable(fmt.Sprintf("%s on %s — completion time (s)", desc, m.Name), cols...)
	syncTab := stats.NewTable(fmt.Sprintf("%s on %s — total sync ops (AFS: local+remote)", desc, m.Name), cols...)

	for _, p := range procs {
		if p > m.MaxProcs {
			fmt.Fprintf(os.Stderr, "note: %d exceeds %s's %d processors\n", p, m.Name, m.MaxProcs)
		}
		trow := []string{strconv.Itoa(p)}
		srow := []string{strconv.Itoa(p)}
		for _, s := range specs {
			res, err := sim.Run(m, p, s, build())
			if err != nil {
				fatal(err)
			}
			trow = append(trow, stats.FormatSeconds(res.Seconds))
			srow = append(srow, strconv.Itoa(res.TotalSyncOps()))
		}
		timeTab.AddRow(trow...)
		syncTab.AddRow(srow...)
	}

	if *csv {
		timeTab.CSV(os.Stdout)
		if *showSync {
			syncTab.CSV(os.Stdout)
		}
		return
	}
	timeTab.Render(os.Stdout)
	if *showSync {
		fmt.Println()
		syncTab.Render(os.Stdout)
	}
	if *showTrace {
		p := procs[len(procs)-1]
		spec := specs[len(specs)-1]
		tr := trace.New(p)
		if _, err := sim.RunOpts(m, p, spec, build(), sim.Options{Observer: telemetry.ObserveEvents(tr)}); err != nil {
			fatal(err)
		}
		fmt.Printf("\nexecution trace: %s, %d processors\n", spec.Name, p)
		tr.Gantt(os.Stdout, 100)
		tr.Summary(os.Stdout)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loopsched:", err)
	os.Exit(1)
}
