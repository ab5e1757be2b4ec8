package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"math"
	"net/http"
	"strings"
	"sync"

	"repro/internal/job"
	"repro/internal/webui"
)

// jobResponse is the wire form of a completed submission.
type jobResponse struct {
	Tenant        string  `json:"tenant"`
	Scheduler     string  `json:"scheduler"`
	Procs         int     `json:"procs"`
	Shard         string  `json:"shard"`
	WaitNS        int64   `json:"wait_ns"`
	ElapsedNS     int64   `json:"elapsed_ns"`
	Phases        int     `json:"phases"`
	Iterations    int64   `json:"iterations"`
	Steals        int64   `json:"steals"`
	MigratedIters int64   `json:"migrated_iters"`
	Checksum      float64 `json:"checksum"`
}

// errorResponse is the wire form of a refused submission.
type errorResponse struct {
	Error          string  `json:"error"`
	Reason         string  `json:"reason,omitempty"`
	RetryAfterSecs float64 `json:"retry_after_seconds,omitempty"`
}

// maxJobBody caps a /jobs request body. A spec is a few hundred
// bytes; larger bodies are refused with 413 before they are buffered.
const maxJobBody = 1 << 20

// maxPooledJobBuf is the largest buffer jobBufs keeps. A rare large
// body's buffer is dropped instead of being pinned by the pool.
const maxPooledJobBuf = 64 << 10

// jobBuf is one /jobs request's scratch, pooled across requests: buf
// holds the request body and then the encoded reply, and spec and
// resp are the decoded request and the reply value, so neither is
// allocated per request.
type jobBuf struct {
	buf  bytes.Buffer
	enc  *json.Encoder // writes into buf
	spec job.Spec
	resp jobResponse
}

var jobBufs = sync.Pool{New: func() any {
	b := new(jobBuf)
	b.enc = json.NewEncoder(&b.buf)
	return b
}}

func putJobBuf(b *jobBuf) {
	if b.buf.Cap() > maxPooledJobBuf {
		return
	}
	b.buf.Reset()
	jobBufs.Put(b)
}

// kernelInfo is one registry row on /kernels.
type kernelInfo struct {
	Name        string     `json:"name"`
	Description string     `json:"description"`
	Defaults    job.Params `json:"defaults"`
}

// NewHandler serves a Server over HTTP — the loopserved front door:
//
//	/          HTML index (shared webui scaffold, live /status poll)
//	/jobs      POST a job.Spec JSON; blocks until the job completes
//	           and answers with compact JSON. 400 invalid spec (or
//	           data after it), 413 body over 1 MiB, 429 shed
//	           (Retry-After header), 503 server closed, 500 kernel
//	           panic.
//	/kernels   registered kernels with their default params
//	/status    queue depth, dispatch totals, tenants, shards (JSON)
//	/tenants   the status's tenant rows only
//	/shards    the status's shard rows only
//	/healthz   liveness: 200 {"ok":true} until Close, then 503
//
// Observability (metrics, flight, traces, SLOs) is NOT mounted here —
// the daemon composes this handler with livemetrics.NewHandler and
// slo.Handler on their own routes (internal/daemon).
// label names the service in the HTML view.
func NewHandler(s *Server, label string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		renderServeIndex(w, label)
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a job spec", http.StatusMethodNotAllowed)
			return
		}
		jb := jobBufs.Get().(*jobBuf)
		defer putJobBuf(jb)
		if _, err := jb.buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxJobBody)); err != nil {
			if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					&RejectError{Err: fmt.Errorf("spec body exceeds the %d-byte limit", maxJobBody)})
				return
			}
			writeError(w, http.StatusBadRequest, &RejectError{Err: fmt.Errorf("reading spec: %w", err)})
			return
		}
		// Unmarshal, unlike a Decoder, refuses data after the spec.
		jb.spec = job.Spec{}
		if err := json.Unmarshal(jb.buf.Bytes(), &jb.spec); err != nil {
			writeError(w, http.StatusBadRequest, &RejectError{Err: fmt.Errorf("decoding spec: %w", err)})
			return
		}
		res, err := s.Submit(r.Context(), jb.spec)
		if err != nil {
			writeError(w, HTTPStatus(err), err)
			return
		}
		jb.resp = jobResponse{
			Tenant:        res.Tenant,
			Scheduler:     res.Scheduler,
			Procs:         res.Procs,
			Shard:         res.Shard,
			WaitNS:        res.Wait.Nanoseconds(),
			ElapsedNS:     res.Stats.Elapsed.Nanoseconds(),
			Phases:        res.Stats.Phases,
			Iterations:    res.Stats.Iterations,
			Steals:        res.Stats.Steals,
			MigratedIters: res.Stats.MigratedIters,
			Checksum:      res.Checksum,
		}
		jb.buf.Reset()
		if err := jb.enc.Encode(&jb.resp); err != nil { // a NaN or infinite checksum
			writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding result: %w", err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(jb.buf.Bytes())
	})
	mux.HandleFunc("/kernels", func(w http.ResponseWriter, r *http.Request) {
		rows := make([]kernelInfo, 0)
		for _, k := range job.Kernels() {
			rows = append(rows, kernelInfo{Name: k.Name, Description: k.Description, Defaults: k.Defaults})
		}
		webui.JSON(w, rows)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		webui.JSON(w, s.Status())
	})
	mux.HandleFunc("/tenants", func(w http.ResponseWriter, r *http.Request) {
		webui.JSON(w, s.Status().Tenants)
	})
	mux.HandleFunc("/shards", func(w http.ResponseWriter, r *http.Request) {
		webui.JSON(w, s.Status().Shards)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.closed.Load() {
			// The header must be set before WriteHeader sends it.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			webui.JSON(w, map[string]bool{"ok": false})
			return
		}
		webui.JSON(w, map[string]bool{"ok": true})
	})
	return mux
}

func writeError(w http.ResponseWriter, status int, err error) {
	resp := errorResponse{Error: err.Error()}
	var shed *ShedError
	if errors.As(err, &shed) {
		resp.Reason = shed.Reason
		resp.RetryAfterSecs = shed.RetryAfter.Seconds()
		// Retry-After is whole seconds; round up so clients never retry
		// before the bucket actually refills.
		secs := int64(math.Ceil(shed.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
}

var serveIndexBody = template.Must(template.New("serveindex").Parse(`
<h1>loopserved — {{.Label}}</h1>
<p class="muted">Multi-tenant loop-scheduling service.
POST job specs to <a href="/jobs">/jobs</a>; see
<a href="/kernels">/kernels</a>, <a href="/status">/status</a>,
<a href="/tenants">/tenants</a>, <a href="/shards">/shards</a>,
<a href="/healthz">/healthz</a>.</p>

<h2>Admission</h2>
<p id="serve-status" class="muted">waiting for first scrape…</p>

<h2>Tenants</h2>
<table>
<thead><tr><th>tenant</th><th>weight</th><th>rate/s</th><th>burst</th><th>tokens</th></tr></thead>
<tbody id="tenant-rows"></tbody>
</table>

<h2>Shards</h2>
<p class="muted">Executor shards keyed scheduler×procs; jobs sharing a
shard reuse its persistent affinity state.</p>
<table>
<thead><tr><th>shard</th><th>scheduler</th><th>procs</th><th>submissions</th></tr></thead>
<tbody id="shard-rows"></tbody>
</table>
`))

const serveIndexScript = template.JS(`
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
  document.getElementById('serve-status').textContent =
    s.queued + '/' + s.queue_limit + ' queued, ' +
    s.dispatched + ' dispatched' + (s.closed ? ' — CLOSED' : '');
  const tr = document.getElementById('tenant-rows');
  tr.innerHTML = '';
  for (const t of (s.tenants || [])) {
    tr.appendChild(row([t.tenant, t.weight,
      t.rate_per_sec > 0 ? t.rate_per_sec : '∞',
      t.burst, t.tokens.toFixed(1)]));
  }
  const sr = document.getElementById('shard-rows');
  sr.innerHTML = '';
  for (const sh of (s.shards || [])) {
    sr.appendChild(row([sh.shard, sh.scheduler, sh.procs, sh.submissions]));
  }
}
pollLoop('/status', 1000, render);
`)

func renderServeIndex(w http.ResponseWriter, label string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	serveIndexBody.Execute(&b, struct{ Label string }{label})
	webui.Render(w, webui.Page{
		Title:  "loopserved — " + label,
		Body:   template.HTML(b.String()),
		Script: serveIndexScript,
	})
}
