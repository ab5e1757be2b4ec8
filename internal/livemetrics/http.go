package livemetrics

import (
	"encoding/json"
	"expvar"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/spantrace"
	"repro/internal/telemetry"
	"repro/internal/webui"
)

// expvar.Publish panics on duplicate names, so the livemetrics
// callback is registered once and reads whichever Plane the most
// recent NewHandler installed (the perflab dashboard uses the same
// pattern for its live state).
var (
	publishOnce sync.Once
	planeVar    atomic.Pointer[Plane]
)

// NewHandler serves a plane over HTTP — the live introspection
// surface:
//
//	/             auto-refreshing HTML view (shared webui scaffold)
//	/metrics      full Snapshot as JSON (also published via expvar as
//	              "livemetrics" under /debug/vars)
//	/metrics.prom Snapshot in Prometheus text exposition format
//	/workers      per-worker rows only: ownership totals, affinity-hit
//	              ratio, utilization, steal rate, queue depth
//	/flight       flight-recorder dump; ?format=jsonl|chrome|trace,
//	              ?which=live|anomaly
//	/traces       span-trace summaries (404 until SetTracer)
//	/trace        one span tree by ?id=; ?format=json|trace
//	/debug/       pprof and expvar
//
// The /debug/ tree serves explicit pprof and expvar handlers, NOT
// http.DefaultServeMux: mounting the default mux would leak every
// handler any package in the process registered globally (and pprof's
// init-time registrations) into this surface.
//
// label names the engine in the HTML view and trace metadata.
func NewHandler(p *Plane, label string) http.Handler {
	planeVar.Store(p)
	publishOnce.Do(func() {
		expvar.Publish("livemetrics", expvar.Func(func() any {
			return planeVar.Load().Snapshot()
		}))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		renderIndex(w, label)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, p.Snapshot())
	})
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteProm(w, p.Snapshot())
	})
	mux.HandleFunc("/workers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, p.Snapshot().Workers)
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
		serveFlight(w, r, p, label)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		t := p.Tracer()
		if t == nil {
			http.Error(w, "no tracer attached", http.StatusNotFound)
			return
		}
		spantrace.ServeTraces(w, t)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		t := p.Tracer()
		if t == nil {
			http.Error(w, "no tracer attached", http.StatusNotFound)
			return
		}
		spantrace.ServeTrace(w, r, t)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteTrace serializes the dump's fully captured steps (Consistent)
// as a telemetry.TraceFile — the same wire form /flight?format=trace
// serves, reusable by the bundle capturer so a frozen flight ring
// lands on disk ready for `loopdoctor analyze`.
func (d *FlightDump) WriteTrace(w io.Writer, label string, procs int) error {
	evs, pvs := d.Consistent()
	t := telemetry.TraceFile{
		Meta:   telemetry.TraceMeta{Label: label, Substrate: "real", Procs: procs, TimeUnit: "ns"},
		Events: evs,
		Prov:   pvs,
	}
	return t.Write(w)
}

func serveFlight(w http.ResponseWriter, r *http.Request, p *Plane, label string) {
	var d *FlightDump
	switch which := r.URL.Query().Get("which"); which {
	case "", "live":
		d = p.Recorder().Dump("scrape")
	case "anomaly":
		d = p.Recorder().Anomaly()
		if d == nil {
			http.Error(w, "no anomaly recorded", http.StatusNotFound)
			return
		}
	default:
		http.Error(w, fmt.Sprintf("unknown which %q (live|anomaly)", which), http.StatusBadRequest)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := telemetry.WriteJSONL(w, d.Events); err != nil {
			return // headers are sent; a write error means the client went away
		}
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		err := telemetry.WriteChromeTrace(w, d.Events, telemetry.ChromeOptions{
			Label:     fmt.Sprintf("%s flight (%s)", label, d.Reason),
			Procs:     p.Procs(),
			TimeScale: 1e-3, // ns -> µs
		})
		if err != nil {
			return // mid-stream failure: the response cannot be repaired
		}
	case "trace":
		// The forensics-ready form: only fully captured steps, so the
		// stream passes tracecheck and loopdoctor attach can run the
		// standard attribution pipeline on it.
		w.Header().Set("Content-Type", "application/json")
		if err := d.WriteTrace(w, fmt.Sprintf("%s flight (%s)", label, d.Reason), p.Procs()); err != nil {
			return // mid-stream failure: the response cannot be repaired
		}
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (jsonl|chrome|trace)", format), http.StatusBadRequest)
	}
}

var indexBody = template.Must(template.New("plane").Parse(`
<h1>live plane — {{.Label}}</h1>
<p class="muted">Live observability plane.
See <a href="/metrics">/metrics</a>, <a href="/metrics.prom">/metrics.prom</a>,
<a href="/workers">/workers</a>,
<a href="/flight">/flight</a> (<a href="/flight?format=chrome">chrome</a>,
<a href="/flight?format=trace">trace</a>), <a href="/traces">/traces</a>,
<a href="/debug/vars">/debug/vars</a>, <a href="/debug/pprof/">/debug/pprof</a>.</p>

<h2>Engine</h2>
<p id="engine-status" class="muted">waiting for first scrape…</p>
<table>
<thead><tr><th></th><th>count</th><th>p50</th><th>p90</th><th>p99</th></tr></thead>
<tbody id="latency-rows"></tbody>
</table>

<h2>Workers</h2>
<table>
<thead><tr><th>worker</th><th>chunks</th><th>iters</th><th>affinity hit</th>
<th>stolen exec</th><th>victimized</th><th>util</th><th>steals/s</th><th>queue</th></tr></thead>
<tbody id="worker-rows"></tbody>
</table>

<h2>Slow exemplars</h2>
<p class="muted">Traced submissions retained per latency bucket, slowest
first; trace links resolve to full span trees.</p>
<table>
<thead><tr><th>trace</th><th>latency</th><th>bucket ≤</th><th>age</th></tr></thead>
<tbody id="exemplar-rows"></tbody>
</table>
`))

const indexScript = template.JS(`
function fmtNS(ns) {
  if (ns >= 1e9) return (ns / 1e9).toPrecision(3) + 's';
  if (ns >= 1e6) return (ns / 1e6).toPrecision(3) + 'ms';
  if (ns >= 1e3) return (ns / 1e3).toPrecision(3) + 'µs';
  return ns.toPrecision(3) + 'ns';
}
function row(cells) {
  const tr = document.createElement('tr');
  for (const v of cells) {
    const td = document.createElement('td');
    td.textContent = v;
    tr.appendChild(td);
  }
  return tr;
}
function render(s) {
  const c = s.counters;
  document.getElementById('engine-status').textContent =
    'up ' + s.uptime_seconds.toFixed(0) + 's — ' +
    c.submissions + ' submissions (' + c.completed + ' ok, ' +
    c.cancellations + ' cancelled, ' + c.panics + ' panicked), ' +
    c.chunks + ' chunks, ' + c.steals + ' steals, ' +
    c.migrated_iters + ' iters migrated';
  const lat = document.getElementById('latency-rows');
  lat.innerHTML = '';
  for (const [name, q] of [['submission', s.submission], ['chunk', s.chunk], ['steal', s.steal]]) {
    lat.appendChild(row([name, q.count, fmtNS(q.p50_ns), fmtNS(q.p90_ns), fmtNS(q.p99_ns)]));
  }
  const wr = document.getElementById('worker-rows');
  wr.innerHTML = '';
  for (const w of (s.workers || [])) {
    wr.appendChild(row([w.worker, w.chunks, w.iters,
      (100 * w.affinity_hit_ratio).toFixed(1) + '%',
      w.stolen_exec, w.victimized,
      (100 * w.utilization).toFixed(0) + '%',
      w.steal_rate.toFixed(1), w.queue_depth]));
  }
  const ex = document.getElementById('exemplar-rows');
  ex.innerHTML = '';
  for (const e of (s.submission_exemplars || [])) {
    const tr = row(['', fmtNS(e.latency_ns), fmtNS(e.bucket_ns),
      e.age_seconds.toFixed(1) + 's']);
    const a = document.createElement('a');
    a.href = '/trace?id=' + e.trace_id;
    a.textContent = '#' + e.trace_id;
    tr.firstChild.appendChild(a);
    ex.appendChild(tr);
  }
}
pollLoop('/metrics', 1000, render);
`)

func renderIndex(w http.ResponseWriter, label string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	indexBody.Execute(&b, struct{ Label string }{label})
	webui.Render(w, webui.Page{
		Title:  "live plane — " + label,
		Body:   template.HTML(b.String()),
		Script: indexScript,
	})
}
