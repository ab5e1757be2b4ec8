// Command loopdoctor is the execution-forensics front end: it captures
// provenance-instrumented simulator traces, produces attribution
// reports explaining where an execution's cycles went (compute /
// cache-reload / interconnect / queue-wait / idle), and diagnoses the
// difference between two runs with an automated verdict.
//
//	loopdoctor capture -kernel sor -algo gss -machine ksr1 -p 8 -n 128 -o gss.trace.json
//	loopdoctor capture -kernel sor -algo afs -machine ksr1 -p 8 -n 128 -o afs.trace.json
//	loopdoctor analyze gss.trace.json
//	loopdoctor diff gss.trace.json afs.trace.json
//
// analyze and diff read trace files written by capture (or by any
// code that serialises a telemetry.TraceFile, e.g. perflab). Output is
// markdown by default; -format json emits the full Analysis /
// DiffReport structures.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/forensics"
	"repro/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "capture":
		err = runCapture(os.Args[2:])
	case "analyze":
		err = runAnalyze(os.Args[2:])
	case "diff":
		err = runDiff(os.Args[2:])
	case "attach":
		err = runAttach(os.Args[2:])
	case "trace":
		err = runTrace(os.Args[2:])
	case "bundle":
		err = runBundle(os.Args[2:])
	case "-h", "--help", "help":
		usage(os.Stdout)
		return
	default:
		fmt.Fprintf(os.Stderr, "loopdoctor: unknown command %q\n\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loopdoctor:", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `loopdoctor — execution forensics for loop scheduling runs

usage:
  loopdoctor capture -kernel K -algo A [-machine M] [-p P] [-n N] [-phases S] [-seed X] -o FILE
      run the simulator with provenance capture and write a trace file
  loopdoctor analyze FILE [-format md|json] [-o OUT]
      attribution report: steal graph, critical path, per-processor
      compute / cache-reload / interconnect / queue-wait / idle buckets
  loopdoctor diff FILE_A FILE_B [-format md|json] [-o OUT]
      decompose the makespan difference between two traces and emit an
      attribution verdict
  loopdoctor attach URL [-which live|anomaly] [-format md|json] [-o OUT] [-save FILE]
      capture a flight dump from a running loopserved / observability
      endpoint and run the standard attribution report on it; with
      -watch INTERVAL, re-capture and re-report every INTERVAL
      (-count N stops after N reports); transient connection errors
      are retried with backoff (-retries N, default 3, 0 disables)
  loopdoctor trace ID [-url U] [-format md|json] [-o OUT] [-save FILE]
      fetch one traced submission's span tree from a running engine
      (default -url localhost:8077) and run the attribution report on
      it — the forensics half of the exemplar triage loop: /metrics
      names a slow trace ID, this command explains where its time went
  loopdoctor bundle PATH|URL [-format md|json] [-o OUT]
      triage a diagnostic bundle captured by the watchdog (a local
      .tar, or a running engine's /bundle?id= URL): names the dominant
      overhead bucket from the frozen flight trace and the slowest
      exemplar span tree, next to the Go-runtime and SLO state at the
      moment of the firing
`)
}

func runCapture(args []string) error {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	machine := fs.String("machine", "symmetry", "machine preset (iris, butterfly, symmetry, ksr1, ideal)")
	kernel := fs.String("kernel", "sor", "kernel name (sor, gauss, tc-skew, adjoint, ...)")
	algo := fs.String("algo", "afs", "scheduling algorithm (afs, gss, static, ...)")
	procs := fs.Int("p", 8, "simulated processors")
	n := fs.Int("n", 128, "problem size")
	phases := fs.Int("phases", 6, "outer-loop steps (phased kernels)")
	seed := fs.Int64("seed", 1, "seed for randomised kernels")
	label := fs.String("label", "", "run label (default algo/kernel/machine/pP)")
	out := fs.String("o", "", "output trace file (default stdout)")
	fs.Parse(args)

	// Same offending-flag validation as realbench and perflab
	// (internal/cli): bad counts name their flag and exit non-zero
	// instead of surfacing as a confusing capture failure.
	if err := cli.FirstError(
		cli.PositiveInt("-p", *procs),
		cli.PositiveInt("-n", *n),
		cli.PositiveInt("-phases", *phases),
	); err != nil {
		return err
	}

	tr, met, err := forensics.CaptureSim(forensics.CaptureSpec{
		Machine: *machine, Kernel: *kernel, Algo: *algo,
		Procs: *procs, N: *n, Phases: *phases, Seed: *seed, Label: *label,
	})
	if err != nil {
		return err
	}
	if *out == "" {
		return tr.Write(os.Stdout)
	}
	if err := tr.WriteFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "captured %s: %d events, %d provenance records, makespan %.0f cycles → %s\n",
		tr.Meta.Label, len(tr.Events), len(tr.Prov), met.Cycles, *out)
	return nil
}

// parseMixed parses args, allowing flags to follow positional operands
// (`analyze trace.json -o out.md`) — the flag package alone stops at
// the first operand. Returns the operands in order.
func parseMixed(fs *flag.FlagSet, args []string) []string {
	var pos []string
	for {
		fs.Parse(args)
		rest := fs.Args()
		i := 0
		for i < len(rest) && !strings.HasPrefix(rest[i], "-") {
			pos = append(pos, rest[i])
			i++
		}
		if i == len(rest) {
			return pos
		}
		args = rest[i:]
	}
}

// outWriter resolves -o; callers must call the returned close func.
func outWriter(path string) (io.Writer, func() error, error) {
	if path == "" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func runAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	format := fs.String("format", "md", "output format: md or json")
	out := fs.String("o", "", "output file (default stdout)")
	pos := parseMixed(fs, args)
	if len(pos) != 1 {
		return fmt.Errorf("analyze wants exactly one trace file, got %d args", len(pos))
	}
	tr, err := telemetry.ReadTraceFile(pos[0])
	if err != nil {
		return err
	}
	a, err := forensics.Analyze(tr)
	if err != nil {
		return err
	}
	w, closeW, err := outWriter(*out)
	if err != nil {
		return err
	}
	switch *format {
	case "json":
		err = forensics.WriteJSON(w, a)
	case "md", "markdown":
		err = forensics.WriteMarkdown(w, a)
	default:
		err = fmt.Errorf("unknown format %q (want md or json)", *format)
	}
	if cerr := closeW(); err == nil {
		err = cerr
	}
	return err
}

// runAttach pulls a live flight dump from a running engine's
// observability endpoint (cmd/loopserved, or any server built on
// repro.ObservabilityHandler) and feeds it through the same
// attribution pipeline as analyze — turning the last moments of a
// living engine into a standard forensics report.
func runAttach(args []string) error {
	fs := flag.NewFlagSet("attach", flag.ExitOnError)
	which := fs.String("which", "live", "which dump to capture: live or anomaly")
	format := fs.String("format", "md", "output format: md or json")
	out := fs.String("o", "", "output file (default stdout)")
	save := fs.String("save", "", "also save the captured trace file here")
	watch := fs.Duration("watch", 0, "re-capture and re-report at this interval (0 = once)")
	count := fs.Int("count", 0, "with -watch, stop after this many reports (0 = forever)")
	retries := fs.Int("retries", 3, "retry transient connection errors this many times (0 = fail on the first)")
	pos := parseMixed(fs, args)
	if len(pos) != 1 {
		return fmt.Errorf("attach wants exactly one engine URL, got %d args", len(pos))
	}
	if err := cli.FirstError(
		cli.OneOf("-which", *which, "live", "anomaly"),
		cli.OneOf("-format", *format, "md", "markdown", "json"),
		cli.NonNegativeInt("-retries", *retries),
	); err != nil {
		return err
	}
	if *watch != 0 {
		if err := cli.PositiveDuration("-watch", *watch); err != nil {
			return err
		}
	}
	if *count != 0 {
		if *watch == 0 {
			return fmt.Errorf("-count only makes sense with -watch")
		}
		if err := cli.PositiveInt("-count", *count); err != nil {
			return err
		}
	}

	// One capture → one report. In -watch mode this runs repeatedly
	// against the same writer, each report preceded by a separator so
	// successive snapshots are greppable in one stream.
	report := func(w io.Writer, round int) error {
		tr, err := fetchFlightTrace(pos[0], *which, *retries)
		if err != nil {
			return err
		}
		if *save != "" {
			// In watch mode every round overwrites the same file: -save
			// keeps the freshest capture, the report stream keeps history.
			if err := tr.WriteFile(*save); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "saved %d events, %d provenance records → %s\n",
				len(tr.Events), len(tr.Prov), *save)
		}
		a, err := forensics.Analyze(tr)
		if err != nil {
			return err
		}
		if *watch != 0 {
			fmt.Fprintf(w, "--- attach %s round %d @ %s ---\n",
				*which, round, time.Now().Format(time.RFC3339))
		}
		if *format == "json" {
			return forensics.WriteJSON(w, a)
		}
		return forensics.WriteMarkdown(w, a)
	}

	w, closeW, err := outWriter(*out)
	if err != nil {
		return err
	}
	err = report(w, 1)
	for round := 2; err == nil && *watch != 0 && (*count == 0 || round <= *count); round++ {
		time.Sleep(*watch)
		err = report(w, round)
	}
	if cerr := closeW(); err == nil {
		err = cerr
	}
	return err
}

// runTrace closes the triage loop that starts at a /metrics exemplar:
// given the trace ID the exemplar names, it fetches that submission's
// span tree from the running engine (the spantrace /trace endpoint
// lowers it to a telemetry.TraceFile) and runs the standard
// attribution report, so "which submission was slow" becomes "where
// inside it the time went" in one command.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	base := fs.String("url", "localhost:8077", "engine observability URL")
	format := fs.String("format", "md", "output format: md or json")
	out := fs.String("o", "", "output file (default stdout)")
	save := fs.String("save", "", "also save the fetched trace file here")
	pos := parseMixed(fs, args)
	if len(pos) != 1 {
		return fmt.Errorf("trace wants exactly one trace ID, got %d args", len(pos))
	}
	id, err := cli.Uint64Arg("trace ID", pos[0])
	if err != nil {
		return err
	}
	if err := cli.OneOf("-format", *format, "md", "markdown", "json"); err != nil {
		return err
	}

	tr, err := fetchSpanTrace(*base, id)
	if err != nil {
		return err
	}
	if *save != "" {
		if err := tr.WriteFile(*save); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "saved %d events, %d provenance records → %s\n",
			len(tr.Events), len(tr.Prov), *save)
	}
	a, err := forensics.Analyze(tr)
	if err != nil {
		return err
	}
	w, closeW, err := outWriter(*out)
	if err != nil {
		return err
	}
	if *format == "json" {
		err = forensics.WriteJSON(w, a)
	} else {
		err = forensics.WriteMarkdown(w, a)
	}
	if cerr := closeW(); err == nil {
		err = cerr
	}
	return err
}

// normalizeURL defaults the scheme and strips a trailing slash, so
// operands like localhost:8077 work as-is.
func normalizeURL(base string) string {
	u := strings.TrimSuffix(base, "/")
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}

// httpGet fetches u, retrying transport-level failures (connection
// refused or reset, timeouts — the shapes a just-starting or briefly
// hiccuping engine produces) up to retries times with doubling backoff
// from 250ms. An HTTP error status is a definitive answer from a live
// server, not a transient fault, so it is returned immediately.
func httpGet(u string, retries int) (*http.Response, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	backoff := 250 * time.Millisecond
	for attempt := 0; ; attempt++ {
		resp, err := client.Get(u)
		if err == nil {
			return resp, nil
		}
		if attempt >= retries {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "loopdoctor: %v — retry %d/%d in %v\n", err, attempt+1, retries, backoff)
		time.Sleep(backoff)
		backoff *= 2
	}
}

// fetchTrace GETs a telemetry.TraceFile from an endpoint, with the
// shared retry policy and error shape.
func fetchTrace(what, u string, retries int) (*telemetry.TraceFile, error) {
	resp, err := httpGet(u, retries)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", what, u, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s %s: %s: %s", what, u, resp.Status, strings.TrimSpace(string(body)))
	}
	tr, err := telemetry.ReadTrace(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", what, u, err)
	}
	return tr, nil
}

// fetchSpanTrace GETs URL/trace?id=N&format=trace and parses the
// telemetry.TraceFile the span-trace endpoint serves.
func fetchSpanTrace(base string, id uint64) (*telemetry.TraceFile, error) {
	u := normalizeURL(base) + fmt.Sprintf("/trace?id=%d&format=trace", id)
	return fetchTrace("trace", u, 0)
}

// fetchFlightTrace GETs URL/flight?format=trace&which=… and parses the
// telemetry.TraceFile the endpoint serves.
func fetchFlightTrace(base, which string, retries int) (*telemetry.TraceFile, error) {
	u := normalizeURL(base) + "/flight?format=trace&which=" + which
	return fetchTrace("attach", u, retries)
}

func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	format := fs.String("format", "md", "output format: md or json")
	out := fs.String("o", "", "output file (default stdout)")
	pos := parseMixed(fs, args)
	if len(pos) != 2 {
		return fmt.Errorf("diff wants exactly two trace files, got %d args", len(pos))
	}
	var analyses [2]*forensics.Analysis
	for i := 0; i < 2; i++ {
		tr, err := telemetry.ReadTraceFile(pos[i])
		if err != nil {
			return err
		}
		if analyses[i], err = forensics.Analyze(tr); err != nil {
			return fmt.Errorf("%s: %w", pos[i], err)
		}
	}
	d := forensics.Diff(analyses[0], analyses[1])
	w, closeW, err := outWriter(*out)
	if err != nil {
		return err
	}
	switch *format {
	case "json":
		err = forensics.WriteJSON(w, d)
	case "md", "markdown":
		err = forensics.WriteDiffMarkdown(w, d)
	default:
		err = fmt.Errorf("unknown format %q (want md or json)", *format)
	}
	if cerr := closeW(); err == nil {
		err = cerr
	}
	return err
}
