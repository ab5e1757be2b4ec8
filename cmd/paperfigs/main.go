// Command paperfigs regenerates the figures and tables of Markatos &
// LeBlanc (SC'92) from the machine simulator and prints them as text
// tables with shape self-checks. It can also run one instrumented
// simulation and export the full telemetry stream.
//
// Usage:
//
//	paperfigs -all                 # every figure and table
//	paperfigs -id fig4             # one experiment
//	paperfigs -scale paper -id fig15
//	paperfigs -list
//	paperfigs -trace-out t.json -trace-kernel gauss -trace-algo afs
//	paperfigs -check -trace-kernel sor -trace-machine ksr1
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	var (
		id     = flag.String("id", "", "experiment id (fig3..fig17, table2..table5, sec5.3, ext-*)")
		all    = flag.Bool("all", false, "run every experiment")
		list   = flag.Bool("list", false, "list experiment ids")
		scale  = flag.String("scale", "default", "problem scale: short, default, paper")
		outdir = flag.String("outdir", "", "also write artifacts (text + CSV + index.md) to this directory")

		traceOut     = flag.String("trace-out", "", "run one instrumented simulation and write a Chrome trace-event file")
		metricsOut   = flag.String("metrics-out", "", "instrumented simulation: write per-step metrics time series as CSV")
		check        = flag.Bool("check", false, "instrumented simulation: verify the event stream invariants")
		traceKernel  = flag.String("trace-kernel", "gauss", "instrumented simulation: kernel")
		traceMachine = flag.String("trace-machine", "iris", "instrumented simulation: machine model")
		traceAlgo    = flag.String("trace-algo", "afs", "instrumented simulation: algorithm")
		traceProcs   = flag.Int("trace-procs", 8, "instrumented simulation: processors")
		traceN       = flag.Int("trace-n", 128, "instrumented simulation: problem size")
		tracePhases  = flag.Int("trace-phases", 8, "instrumented simulation: outer phases")
	)
	flag.Parse()

	if *traceOut != "" || *metricsOut != "" || *check {
		err := tracedSim(*traceKernel, *traceMachine, *traceAlgo,
			*traceProcs, *traceN, *tracePhases, *traceOut, *metricsOut, *check)
		if err != nil {
			fatal(err)
		}
		return
	}

	s, err := experiments.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	var results []*experiments.Result
	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	case *all:
		failed := 0
		for _, e := range experiments.All() {
			r, ok := runOne(e, s)
			if r != nil {
				results = append(results, r)
			}
			if !ok {
				failed++
			}
		}
		writeArtifacts(*outdir, results)
		if failed > 0 {
			fatal(fmt.Errorf("%d experiment(s) had failing shape checks", failed))
		}
	case *id != "":
		e, err := experiments.ByID(*id)
		if err != nil {
			fatal(err)
		}
		r, ok := runOne(e, s)
		if r != nil {
			results = append(results, r)
		}
		writeArtifacts(*outdir, results)
		if !ok {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runOne(e experiments.Experiment, s experiments.Scale) (*experiments.Result, bool) {
	start := time.Now()
	r, err := e.Run(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
		return nil, false
	}
	r.Render(os.Stdout)
	fmt.Printf("  (%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	return r, !r.Failed()
}

func writeArtifacts(dir string, results []*experiments.Result) {
	if dir == "" || len(results) == 0 {
		return
	}
	if err := experiments.WriteArtifacts(dir, results); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d experiment artifact set(s) to %s\n", len(results), dir)
}

// tracedSim runs one fully instrumented simulation and exports and/or
// verifies its telemetry stream.
func tracedSim(kernel, machName, algo string, procs, n, phases int, traceOut, metricsOut string, check bool) error {
	m, err := machine.ByName(machName)
	if err != nil {
		return err
	}
	specs, err := cli.AlgosFlag("-trace-algo", algo)
	if err != nil {
		return err
	}
	build, desc, err := cli.BuildKernel(kernel, n, phases, 1, m)
	if err != nil {
		return err
	}
	stream := telemetry.NewStream()
	reg := telemetry.NewRegistry()
	res, err := sim.RunOpts(m, procs, specs[0], build(), sim.Options{
		Observer: telemetry.TeeObservers(telemetry.ObserveEvents(stream), telemetry.ObserveMetrics(reg, "cycles")),
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s, %s, p=%d: %.0f cycles, %d sync ops, %d steals, %d events\n",
		desc, m.Name, specs[0].Name, procs, res.Cycles, res.TotalSyncOps(), res.Steals, stream.Len())
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		err = telemetry.WriteChromeTrace(f, stream.Events(), telemetry.ChromeOptions{
			Label: fmt.Sprintf("%s on %s, %s, p=%d (simulated)", desc, m.Name, specs[0].Name, procs),
			Procs: procs,
			// One simulated cycle renders as 1e6/CyclesPerSec µs, so
			// the trace shows modelled real time.
			TimeScale: 1e6 / m.CyclesPerSec,
		})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace (%d events) to %s\n", stream.Len(), traceOut)
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		err = telemetry.WriteSeriesCSV(f, reg)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote metrics time series to %s\n", metricsOut)
	}
	if check {
		rep := telemetry.Check(stream.Events())
		if err := rep.Err(); err != nil {
			return err
		}
		fmt.Printf("tracecheck: OK (%d events, %d steps)\n", rep.Events, rep.Steps)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperfigs:", err)
	os.Exit(1)
}
