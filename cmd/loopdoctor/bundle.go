package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"repro/internal/bundle"
	"repro/internal/cli"
	"repro/internal/forensics"
	"repro/internal/runtimeobs"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// runBundle is the offline half of auto-triage: it loads a diagnostic
// bundle the watchdog captured (from disk, or straight off a running
// engine's /bundle?id= endpoint), runs the forensics attribution
// pipeline over the frozen flight trace and the slowest exemplar span
// tree, and reports the dominant overhead bucket next to the
// Go-runtime and SLO state at the moment of the firing — "the
// watchdog fired" becomes "queue-wait dominated, and the runtime was
// (or was not) under GC pressure" in one command.
func runBundle(args []string) error {
	fs := flag.NewFlagSet("bundle", flag.ExitOnError)
	format := fs.String("format", "md", "output format: md or json")
	out := fs.String("o", "", "output file (default stdout)")
	retries := fs.Int("retries", 3, "retry transient connection errors this many times (URL operands)")
	pos := parseMixed(fs, args)
	if len(pos) != 1 {
		return fmt.Errorf("bundle wants exactly one bundle path or URL, got %d args", len(pos))
	}
	if err := cli.FirstError(
		cli.OneOf("-format", *format, "md", "markdown", "json"),
		cli.NonNegativeInt("-retries", *retries),
	); err != nil {
		return err
	}

	b, err := loadBundle(pos[0], *retries)
	if err != nil {
		return err
	}
	rep := triageBundle(b)

	w, closeW, err := outWriter(*out)
	if err != nil {
		return err
	}
	if *format == "json" {
		err = forensics.WriteJSON(w, rep)
	} else {
		err = writeBundleMarkdown(w, rep)
	}
	if cerr := closeW(); err == nil {
		err = cerr
	}
	return err
}

// loadBundle resolves the operand: an existing file reads from disk,
// anything else is treated as a /bundle?id= URL.
func loadBundle(src string, retries int) (*bundle.Bundle, error) {
	if _, err := os.Stat(src); err == nil {
		return bundle.ReadFile(src)
	}
	u := normalizeURL(src)
	resp, err := httpGet(u, retries)
	if err != nil {
		return nil, fmt.Errorf("bundle %s: %w", u, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("bundle %s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	b, err := bundle.Read(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("bundle %s: %w", u, err)
	}
	return b, nil
}

// traceVerdict is one analyzed trace's headline: the dominant
// non-compute bucket and its share of the per-processor span.
type traceVerdict struct {
	Source string `json:"source"`
	// Top is the largest non-compute bucket; Share its fraction of the
	// average per-processor span.
	Top      forensics.BucketKind `json:"top_overhead"`
	TopValue float64              `json:"top_value"`
	Share    float64              `json:"share_of_span"`
	Analysis *forensics.Analysis  `json:"analysis,omitempty"`
	Err      string               `json:"error,omitempty"`
}

// bundleReport is the full triage result (the -format json payload).
type bundleReport struct {
	Meta bundle.Meta `json:"meta"`
	// Flight is the frozen flight ring's attribution; Exemplar the
	// slowest captured span tree's.
	Flight   *traceVerdict        `json:"flight,omitempty"`
	Exemplar *traceVerdict        `json:"exemplar,omitempty"`
	Runtime  *runtimeobs.Snapshot `json:"runtime,omitempty"`
	SLO      *slo.Report          `json:"slo,omitempty"`
}

// analyzeEntry runs the attribution pipeline over one in-bundle trace.
func analyzeEntry(source string, data []byte) *traceVerdict {
	v := &traceVerdict{Source: source}
	tr, err := telemetry.ReadTrace(bytes.NewReader(data))
	if err == nil {
		var a *forensics.Analysis
		if a, err = forensics.Analyze(tr); err == nil {
			v.Analysis = a
			v.Top, v.TopValue = a.TopOverhead()
			if a.Span > 0 {
				v.Share = v.TopValue / a.Span
			}
			return v
		}
	}
	v.Err = err.Error()
	return v
}

// triageBundle analyzes everything the bundle holds. Missing or
// unparsable parts degrade to notes in the report rather than failing
// it: a bundle from a crashing engine is exactly when partial evidence
// matters most.
func triageBundle(b *bundle.Bundle) *bundleReport {
	rep := &bundleReport{Meta: b.Meta}
	if data := b.File(bundle.FlightTraceName); len(data) > 0 {
		rep.Flight = analyzeEntry(bundle.FlightTraceName, data)
	}
	// The manifest lists exemplars slowest-first; the first analyzable
	// one is the tail-latency story.
	for _, name := range b.ExemplarNames() {
		v := analyzeEntry(name, b.File(name))
		rep.Exemplar = v
		if v.Err == "" {
			break
		}
	}
	if data := b.File(bundle.RuntimeName); len(data) > 0 {
		var rt runtimeobs.Snapshot
		if json.Unmarshal(data, &rt) == nil {
			rep.Runtime = &rt
		}
	}
	if data := b.File(bundle.SLOName); len(data) > 0 {
		var sr slo.Report
		if json.Unmarshal(data, &sr) == nil {
			rep.SLO = &sr
		}
	}
	return rep
}

func writeBundleMarkdown(w io.Writer, rep *bundleReport) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	m := rep.Meta
	p("# bundle %s\n\n", m.ID)
	if m.Label != "" {
		p("- engine: %s\n", m.Label)
	}
	p("- captured: %s\n", m.CapturedAt.Format("2006-01-02 15:04:05 MST"))
	p("- trigger: **%s** at detector tick %d\n", m.Trigger.Rule, m.Trigger.Tick)
	if m.Trigger.Reason != "" {
		p("- reason: %s\n", m.Trigger.Reason)
	}
	if m.Trigger.Sigma > 0 {
		p("- observation: %.4g against baseline %.4g (%.1f sigma)\n",
			m.Trigger.Value, m.Trigger.Baseline, m.Trigger.Deviation)
	}

	p("\n## dominant overhead\n\n")
	verdict := func(label string, v *traceVerdict) {
		if v == nil {
			p("- %s: not captured\n", label)
			return
		}
		if v.Err != "" {
			p("- %s (%s): unanalyzable: %s\n", label, v.Source, v.Err)
			return
		}
		a := v.Analysis
		p("- %s (%s): **%s** %.1f%% of per-proc span", label, v.Source, v.Top, 100*v.Share)
		p(" (")
		for i, k := range forensics.BucketOrder {
			if i > 0 {
				p(", ")
			}
			p("%s %.1f%%", k, 100*a.AvgBuckets.Get(k)/a.Span)
		}
		p("); %d steals moved %d iterations\n", a.StealCount, a.MigratedIters)
	}
	verdict("flight trace", rep.Flight)
	verdict("slowest exemplar", rep.Exemplar)

	p("\n## runtime correlation\n\n")
	if rt := rep.Runtime; rt != nil {
		p("- goroutines %d, live heap %.1f MiB, %d GC cycles\n",
			rt.Goroutines, float64(rt.HeapLiveBytes)/(1<<20), rt.GCCycles)
		p("- GC CPU fraction %.4f over the last %.2fs interval\n", rt.GCCPUFraction, rt.IntervalSeconds)
		p("- GC pause p99 %.3gms (%d pauses), sched latency p99 %.3gms (%d waits)\n",
			rt.GCPause.P99/1e6, rt.GCPause.Count, rt.SchedLatency.P99/1e6, rt.SchedLatency.Count)
	} else {
		p("- no runtime snapshot in the bundle\n")
	}

	p("\n## SLO state\n\n")
	if sr := rep.SLO; sr != nil {
		breaching := 0
		for _, o := range sr.Objectives {
			if o.Breaching {
				breaching++
				p("- **%s breaching** (last value %.4g)\n", o.Name, o.Value)
			}
		}
		if breaching == 0 {
			p("- no objective breaching at capture (%d evaluated)\n", len(sr.Objectives))
		}
	} else {
		p("- no SLO report in the bundle\n")
	}

	p("\n## contents\n\n")
	for _, name := range m.Files {
		p("- %s\n", name)
	}
	for _, note := range m.Notes {
		p("- note: %s\n", note)
	}
	return err
}
