package cli

import (
	"fmt"
	"io"
	"os"

	"repro/internal/telemetry"
)

// Export is what one instrumented run's -trace-out, -metrics-out and
// -check flags ask for. realbench and loopsched share it, so a real
// and a simulated run export and verify their streams the same way.
type Export struct {
	TraceOut   string // Chrome trace-event file; "" writes none
	MetricsOut string // per-phase metrics series as CSV; "" writes none
	Check      bool   // verify the stream with telemetry.Check
	// Chrome labels the trace and sets its time scale.
	Chrome telemetry.ChromeOptions
	// Run names the run in the tracecheck line, e.g. "afs on 4 workers".
	Run string
}

// Wanted reports whether any export or check was asked for.
func (x Export) Wanted() bool { return x.TraceOut != "" || x.MetricsOut != "" || x.Check }

// Write exports events and reg as x asks, logging one line per file
// written and the tracecheck verdict to log. reg may be nil when
// MetricsOut is empty.
func (x Export) Write(log io.Writer, events []telemetry.Event, reg *telemetry.Registry) error {
	if x.TraceOut != "" {
		err := writeFile(x.TraceOut, func(w io.Writer) error {
			return telemetry.WriteChromeTrace(w, events, x.Chrome)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(log, "wrote Chrome trace (%d events) to %s\n", len(events), x.TraceOut)
	}
	if x.MetricsOut != "" {
		err := writeFile(x.MetricsOut, func(w io.Writer) error {
			return telemetry.WriteSeriesCSV(w, reg)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(log, "wrote metrics time series to %s\n", x.MetricsOut)
	}
	if x.Check {
		rep := telemetry.Check(events)
		if err := rep.Err(); err != nil {
			return err
		}
		fmt.Fprintf(log, "tracecheck: OK (%d events, %d phases, %s)\n", rep.Events, rep.Steps, x.Run)
	}
	return nil
}

// writeFile creates path, writes it with write, and reports the first
// error of the write or the close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
