// Command paperfigs regenerates the figures and tables of Markatos &
// LeBlanc (SC'92) from the machine simulator and prints them as text
// tables with shape self-checks. One instrumented simulation with a
// telemetry export is cmd/loopsched's job.
//
// Usage:
//
//	paperfigs -all                 # every figure and table
//	paperfigs -id fig4             # one experiment
//	paperfigs -scale paper -id fig15
//	paperfigs -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		id     = flag.String("id", "", "experiment id (fig3..fig17, table2..table5, sec5.3, ext-*)")
		all    = flag.Bool("all", false, "run every experiment")
		list   = flag.Bool("list", false, "list experiment ids")
		scale  = flag.String("scale", "default", "problem scale: short, default, paper")
		outdir = flag.String("outdir", "", "also write artifacts (text + CSV + index.md) to this directory")
	)
	flag.Parse()

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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperfigs:", err)
	os.Exit(1)
}
