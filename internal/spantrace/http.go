package spantrace

import (
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/telemetry"
	"repro/internal/webui"
)

// WriteForensics serializes the trace as a telemetry.TraceFile (the
// shape loopdoctor analyze/attach read), lowering its records through
// Telemetry.
func (t *Trace) WriteForensics(w io.Writer, substrate, timeUnit string) error {
	f := telemetry.TraceFile{
		Meta: telemetry.TraceMeta{Label: t.Label, Substrate: substrate, Procs: t.Procs, TimeUnit: timeUnit},
	}
	if f.Meta.Label == "" {
		f.Meta.Label = fmt.Sprintf("trace %d (%s)", t.TraceID, t.Scheduler)
	}
	f.Events, f.Prov = t.Telemetry(timeUnit)
	return f.Write(w)
}

// TraceSummary is the list row served for one retained trace.
type TraceSummary struct {
	TraceID    uint64  `json:"trace_id"`
	Label      string  `json:"label,omitempty"`
	Scheduler  string  `json:"scheduler,omitempty"`
	Procs      int     `json:"procs"`
	Phases     int     `json:"phases"`
	Outcome    string  `json:"outcome"`
	DurationNS float64 `json:"duration_ns"`
	Spans      int     `json:"spans"`
	Chunks     int     `json:"chunks"`
	Steals     int     `json:"steals"`
	Dropped    int64   `json:"dropped,omitempty"`
}

// Summary condenses a trace to its list row.
func (t *Trace) Summary() TraceSummary {
	chunks, steals := t.Chunks(), t.Steals()
	return TraceSummary{
		TraceID: t.TraceID, Label: t.Label, Scheduler: t.Scheduler,
		Procs: t.Procs, Phases: t.Phases, Outcome: t.Outcome,
		DurationNS: t.DurationNS, Spans: 1 + t.Phases + chunks + steals,
		Chunks: chunks, Steals: steals, Dropped: t.Dropped,
	}
}

// ServeTraces writes the tracer's retained traces (newest first) as a
// JSON list of summaries.
func ServeTraces(w http.ResponseWriter, t *Tracer) {
	out := []TraceSummary{}
	for _, tr := range t.Traces() {
		out = append(out, tr.Summary())
	}
	webui.JSON(w, out)
}

// ServeTrace resolves ?id= against the tracer and serves the span
// tree. ?format=json (default) is the Trace structure itself;
// ?format=trace is the telemetry.TraceFile form loopdoctor reads.
func ServeTrace(w http.ResponseWriter, r *http.Request, t *Tracer) {
	idStr := r.URL.Query().Get("id")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad trace id %q", idStr), http.StatusBadRequest)
		return
	}
	tr := t.Get(id)
	if tr == nil {
		http.Error(w, fmt.Sprintf("trace %d not found (evicted or never recorded)", id), http.StatusNotFound)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		webui.JSON(w, tr)
	case "trace":
		w.Header().Set("Content-Type", "application/json")
		if err := tr.WriteForensics(w, "real", "ns"); err != nil {
			return // headers sent; the client went away
		}
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (json|trace)", format), http.StatusBadRequest)
	}
}

// Handler serves a tracer standalone (repro.TraceHandler):
//
//	/traces        JSON list of retained trace summaries, newest first
//	/trace?id=N    one span tree (?format=json|trace)
//
// livemetrics.NewHandler mounts the same endpoints when its plane has
// a tracer attached, which is the usual path; this standalone form is
// for embedders running a tracer without the live plane.
func Handler(t *Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		ServeTraces(w, t)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		ServeTrace(w, r, t)
	})
	return mux
}
